//! Spans recorded by the benchmark's own files around calls into the
//! program: kept in memory, written out as JSON lines at exit, and
//! summed into a per-name table where a span's self time is its
//! duration minus the part of it that its children cover.

use std::collections::HashMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One span. Times are nanoseconds since the tracer's epoch. `parent`
/// is 0 for a root; `req` is the request ordinal on its connection (or
/// 0 where there is no request).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub req: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// A per-thread span buffer. Ids are unique across lanes of one epoch
/// because the lane number is their high part.
pub struct Tracer {
    epoch: Instant,
    lane: u64,
    next: u64,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(epoch: Instant, lane: u64) -> Tracer {
        Tracer {
            epoch,
            lane,
            next: 0,
            spans: Vec::new(),
        }
    }

    pub fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Record a finished span and return its id.
    pub fn push(
        &mut self,
        name: &'static str,
        parent: u64,
        req: u64,
        start: Instant,
        end: Instant,
    ) -> u64 {
        self.next += 1;
        let id = (self.lane << 40) | self.next;
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span {
            id,
            parent,
            req,
            name,
            start_ns,
            end_ns,
        });
        id
    }

    /// Reserve an id for a span whose end is not known yet; finish it
    /// with [`Tracer::push_reserved`].
    pub fn reserve(&mut self) -> u64 {
        self.next += 1;
        (self.lane << 40) | self.next
    }

    pub fn push_reserved(
        &mut self,
        id: u64,
        name: &'static str,
        parent: u64,
        start: Instant,
        end: Instant,
    ) {
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span {
            id,
            parent,
            req: 0,
            name,
            start_ns,
            end_ns,
        });
    }

    /// Time `f` as a span under `parent`.
    pub fn timed<T>(
        &mut self,
        name: &'static str,
        parent: u64,
        f: impl FnOnce(&mut Tracer, u64) -> T,
    ) -> T {
        let id = self.reserve();
        let start = Instant::now();
        let out = f(self, id);
        self.push_reserved(id, name, parent, start, Instant::now());
        out
    }
}

pub fn write_jsonl(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            w,
            "{{\"id\":{},\"parent\":{},\"req\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.id, s.parent, s.req, s.name, s.start_ns, s.end_ns
        )?;
    }
    w.flush()
}

/// Per-name totals of a span set.
#[derive(Debug, Clone, PartialEq)]
pub struct NameRow {
    pub name: &'static str,
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
fn covered(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let (mut total, mut edge) = (0u64, lo);
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(edge), e.min(hi));
        if e > s {
            total += e - s;
            edge = e;
        }
    }
    total
}

/// Sum spans by name; self time = duration − the part children cover.
pub fn table(spans: &[Span]) -> Vec<NameRow> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    let mut rows: Vec<NameRow> = Vec::new();
    for s in spans {
        let dur = s.end_ns.saturating_sub(s.start_ns);
        let cov = children
            .get_mut(&s.id)
            .map_or(0, |c| covered(c, s.start_ns, s.end_ns));
        match rows.iter_mut().find(|r| r.name == s.name) {
            Some(r) => {
                r.count += 1;
                r.total_ns += dur;
                r.self_ns += dur - cov;
            }
            None => rows.push(NameRow {
                name: s.name,
                count: 1,
                total_ns: dur,
                self_ns: dur - cov,
            }),
        }
    }
    rows
}

pub fn print_table(rows: &[NameRow]) {
    println!("# spans: name count total_ms self_ms");
    for r in rows {
        println!(
            "#   {:<28} {:>9} {:>12.3} {:>12.3}",
            r.name,
            r.count,
            r.total_ns as f64 / 1e6,
            r.self_ns as f64 / 1e6
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_is_duration_minus_what_children_cover() {
        let epoch = Instant::now();
        let at = |us: u64| epoch + Duration::from_micros(us);
        let mut t = Tracer::new(epoch, 3);
        let burst = t.reserve();
        // Children overlap each other and one pokes out of the parent.
        t.push("request", burst, 1, at(10), at(40));
        t.push("request", burst, 2, at(30), at(60));
        t.push("request", burst, 3, at(90), at(120));
        t.push_reserved(burst, "burst", 0, at(0), at(100));
        let rows = table(&t.spans);
        let b = rows.iter().find(|r| r.name == "burst").unwrap();
        // Covered: [10,60] and [90,100] = 60 µs of 100.
        assert_eq!((b.count, b.total_ns, b.self_ns), (1, 100_000, 40_000));
        let r = rows.iter().find(|r| r.name == "request").unwrap();
        assert_eq!((r.count, r.total_ns, r.self_ns), (3, 90_000, 90_000));
        assert!(t.spans.iter().all(|s| s.id >> 40 == 3));
    }

    #[test]
    fn timed_nests_and_jsonl_round_trips_by_eye() {
        let mut t = Tracer::new(Instant::now(), 1);
        let v = t.timed("outer", 0, |t, outer| t.timed("inner", outer, |_, _| 7));
        assert_eq!(v, 7);
        let (inner, outer) = (&t.spans[0], &t.spans[1]);
        assert_eq!((inner.name, outer.name), ("inner", "outer"));
        assert_eq!(inner.parent, outer.id);
        assert!(outer.start_ns <= inner.start_ns && inner.end_ns <= outer.end_ns);
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join(format!("out/test-trace-{}", std::process::id()));
        let path = dir.join("t.jsonl");
        write_jsonl(&path, &t.spans).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 2);
        assert!(text
            .lines()
            .all(|l| l.starts_with("{\"id\":") && l.ends_with('}')));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
