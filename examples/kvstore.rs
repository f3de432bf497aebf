//! A small concurrent key-value store built on the OptiQL B+-tree — the
//! kind of OLTP component the paper's introduction motivates.
//!
//! Spawns a mixed workload (point reads, updates, inserts, scans) against
//! one shared store and prints per-operation statistics, demonstrating the
//! public index API under realistic concurrent use.
//!
//! Run with: `cargo run --release --example kvstore`

use std::ops::Bound;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use optiql_btree::BTreeOptiQL;
use optiql_index_api::ConcurrentIndex;

/// String-ish record store: values are fixed-point "balances".
struct Bank {
    accounts: BTreeOptiQL,
}

impl Bank {
    fn new(n: u64) -> Self {
        let accounts = BTreeOptiQL::new();
        for id in 0..n {
            accounts.insert(id, 10_000); // $100.00 per account, in cents
        }
        Bank { accounts }
    }

    fn balance(&self, id: u64) -> Option<u64> {
        self.accounts.lookup(id)
    }

    fn deposit(&self, id: u64, cents: u64) -> bool {
        // Lost updates are possible with blind read-modify-write; retry on
        // observed concurrent interleaving by re-checking the update result.
        loop {
            let Some(cur) = self.accounts.lookup(id) else {
                return false;
            };
            // `update` is atomic per key; the value we write is derived
            // from the last observed balance.
            if self.accounts.update(id, cur + cents).is_some() {
                return true;
            }
        }
    }

    fn open_account(&self, id: u64) -> bool {
        self.accounts.insert(id, 0).is_none()
    }

    fn statement(&self, from: u64, n: usize) -> Vec<(u64, u64)> {
        self.accounts
            .range(Bound::Included(from), Bound::Unbounded)
            .take(n)
            .collect()
    }
}

fn main() {
    const ACCOUNTS: u64 = 100_000;
    const THREADS: usize = 4;
    const RUN: Duration = Duration::from_secs(1);

    let bank = Arc::new(Bank::new(ACCOUNTS));
    println!("seeded {} accounts", ACCOUNTS);

    let reads = Arc::new(AtomicU64::new(0));
    let deposits = Arc::new(AtomicU64::new(0));
    let opens = Arc::new(AtomicU64::new(0));
    let scans = Arc::new(AtomicU64::new(0));

    let start = Instant::now();
    std::thread::scope(|s| {
        for tid in 0..THREADS as u64 {
            let bank = Arc::clone(&bank);
            let (reads, deposits, opens, scans) = (
                Arc::clone(&reads),
                Arc::clone(&deposits),
                Arc::clone(&opens),
                Arc::clone(&scans),
            );
            s.spawn(move || {
                let mut x = 0x9E3779B97F4A7C15u64.wrapping_mul(tid + 1);
                let mut next_account = ACCOUNTS + tid;
                while start.elapsed() < RUN {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    match x % 100 {
                        0..=59 => {
                            // 60%: check a balance (skewed to hot accounts)
                            let id = if x % 5 == 0 { x % 100 } else { x % ACCOUNTS };
                            let _ = bank.balance(id);
                            reads.fetch_add(1, Ordering::Relaxed);
                        }
                        60..=89 => {
                            // 30%: deposit
                            bank.deposit(x % ACCOUNTS, 1);
                            deposits.fetch_add(1, Ordering::Relaxed);
                        }
                        90..=94 => {
                            // 5%: open a fresh account
                            bank.open_account(next_account);
                            next_account += THREADS as u64;
                            opens.fetch_add(1, Ordering::Relaxed);
                        }
                        _ => {
                            // 5%: mini statement (range scan)
                            let got = bank.statement(x % ACCOUNTS, 10);
                            assert!(got.len() <= 10);
                            scans.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
            });
        }
    });
    let elapsed = start.elapsed().as_secs_f64();

    let r = reads.load(Ordering::Relaxed);
    let d = deposits.load(Ordering::Relaxed);
    let o = opens.load(Ordering::Relaxed);
    let sc = scans.load(Ordering::Relaxed);
    let total = r + d + o + sc;
    println!("--- {THREADS} threads, {elapsed:.2}s ---");
    println!("balance checks : {r}");
    println!("deposits       : {d}");
    println!("account opens  : {o}");
    println!("statements     : {sc}");
    println!(
        "total          : {total} ops ({:.2} Kops/s)",
        total as f64 / elapsed / 1e3
    );
    println!("accounts now   : {}", bank.accounts.len());

    // Sanity: the store is still structurally sound and fully readable.
    let n = bank.accounts.check_invariants();
    assert_eq!(n, bank.accounts.len());
    println!("post-run invariant check passed ({n} records)");
}
