//! The single-threaded synthetic workloads: Figure 5 and the §4.4.2
//! ablations.
//!
//! An array of cache-line-aligned transactional cells is accessed by a large
//! number of short transactions on randomly chosen items: single-location
//! reads, read-only transactions over 2 or 4 consecutive items, and
//! read-write transactions over 1, 2 or 4 consecutive items.  Execution time
//! is normalized to sequential code performing the same number of ordinary
//! loads (for the read-only kinds) or single-word CASes (for the read-write
//! kinds).  The array size is varied so that the working set fits in L1, L2
//! or L3, controlling the cache-miss rate.
//!
//! [`run_ablation`] times the design choices §4.4.2 discusses (write-set
//! kind, short-RW locking time, orec-table size, backoff) with the same
//! loop, in absolute nanoseconds per transaction.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use spectm::variants::{OrecStm, TvarStm, ValShort};
use spectm::{encode_int, Config, ShortLocking, Stm, StmThread, WriteSetKind};
use spectm_ds::ApiMode;

use crate::intset::Xorshift;

/// The transaction shapes measured in Figure 5.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxKind {
    /// `Tx_Single_Read`.
    SingleRead,
    /// Read-only transaction over 2 consecutive items.
    Ro2,
    /// Read-only transaction over 4 consecutive items.
    Ro4,
    /// Read-write transaction over 1 item.
    Rw1,
    /// Read-write transaction over 2 consecutive items.
    Rw2,
    /// Read-write transaction over 4 consecutive items.
    Rw4,
}

impl TxKind {
    /// All kinds, in the order the figure lists them.
    pub fn all() -> [TxKind; 6] {
        [
            TxKind::SingleRead,
            TxKind::Ro2,
            TxKind::Ro4,
            TxKind::Rw1,
            TxKind::Rw2,
            TxKind::Rw4,
        ]
    }

    /// Label used when printing results.
    pub fn label(self) -> &'static str {
        match self {
            TxKind::SingleRead => "single-read",
            TxKind::Ro2 => "ro-2",
            TxKind::Ro4 => "ro-4",
            TxKind::Rw1 => "rw-1",
            TxKind::Rw2 => "rw-2",
            TxKind::Rw4 => "rw-4",
        }
    }

    /// Number of locations the transaction touches.
    pub fn width(self) -> usize {
        match self {
            TxKind::SingleRead | TxKind::Rw1 => 1,
            TxKind::Ro2 | TxKind::Rw2 => 2,
            TxKind::Ro4 | TxKind::Rw4 => 4,
        }
    }

    /// Whether the transaction writes.
    pub fn is_write(self) -> bool {
        matches!(self, TxKind::Rw1 | TxKind::Rw2 | TxKind::Rw4)
    }
}

/// A transactional cell padded to its own cache line, as in the paper's
/// synthetic workload.
#[repr(align(64))]
struct Padded<T>(T);

/// Times `iters` back-to-back calls of `op`: nanoseconds per call.
#[inline]
fn ns_per_op(iters: usize, mut op: impl FnMut()) -> f64 {
    let start = Instant::now();
    for _ in 0..iters {
        op();
    }
    start.elapsed().as_nanos() as f64 / iters as f64
}

/// Nanoseconds per operation for the *sequential* baseline of `kind`:
/// ordinary loads for read-only kinds, a single-word CAS per item for
/// read-write kinds.
pub fn sequential_ns_per_op(kind: TxKind, array_size: usize, iters: usize) -> f64 {
    let cells: Vec<Padded<AtomicUsize>> = (0..array_size)
        .map(|i| Padded(AtomicUsize::new(i * 2)))
        .collect();
    let width = kind.width();
    let mut rng = Xorshift::new(0x1234_5678_9abc_def1);
    let mut sink = 0usize;
    let ns = ns_per_op(iters, || {
        let base = (rng.next() as usize) % (array_size - width + 1);
        if kind.is_write() {
            for j in 0..width {
                let cell = &cells[base + j].0;
                // ORDERING: single-threaded cost model — the orderings
                // mirror the fences the real STM write path would issue
                // (AcqRel CAS per acquired location), not synchronization.
                let cur = cell.load(Ordering::Relaxed);
                let _ = cell.compare_exchange(
                    cur,
                    cur.wrapping_add(2),
                    Ordering::AcqRel,  // ORDERING: as above
                    Ordering::Relaxed, // ORDERING: as above
                );
            }
        } else {
            for j in 0..width {
                // ORDERING: mirrors the real read path's Acquire load.
                sink = sink.wrapping_add(cells[base + j].0.load(Ordering::Acquire));
            }
        }
    });
    std::hint::black_box(sink);
    ns
}

/// Nanoseconds per operation for STM variant `S` driving `kind` through
/// either the traditional (`ApiMode::Full`) or specialized (`ApiMode::Short`)
/// interface.
pub fn stm_ns_per_op<S: Stm>(
    stm: &S,
    api: ApiMode,
    kind: TxKind,
    array_size: usize,
    iters: usize,
) -> f64 {
    let cells: Vec<Padded<S::Cell>> = (0..array_size)
        .map(|i| Padded(stm.new_cell(encode_int(i))))
        .collect();
    let mut thread = stm.register();
    let width = kind.width();
    let mut rng = Xorshift::new(0x9876_5432_10fe_dcb1);
    let mut sink = 0usize;
    let ns = ns_per_op(iters, || {
        let base = (rng.next() as usize) % (array_size - width + 1);
        match (api, kind) {
            // ---- specialized short transactions ----
            (ApiMode::Short | ApiMode::Fine, TxKind::SingleRead) => {
                sink = sink.wrapping_add(thread.single_read(&cells[base].0));
            }
            (ApiMode::Short | ApiMode::Fine, TxKind::Ro2 | TxKind::Ro4) => loop {
                for j in 0..width {
                    sink = sink.wrapping_add(thread.ro_read(j, &cells[base + j].0));
                }
                if thread.ro_is_valid(width) {
                    break;
                }
            },
            (ApiMode::Short | ApiMode::Fine, TxKind::Rw1 | TxKind::Rw2 | TxKind::Rw4) => loop {
                let mut vals = [0usize; 4];
                for j in 0..width {
                    vals[j] = thread.rw_read(j, &cells[base + j].0);
                }
                if !thread.rw_is_valid(width) {
                    continue;
                }
                for v in vals.iter_mut().take(width) {
                    *v = encode_int(spectm::decode_int(*v) + 1);
                }
                if thread.rw_commit(width, &vals[..width]) {
                    break;
                }
            },
            // ---- traditional transactions ----
            (ApiMode::Full, TxKind::SingleRead | TxKind::Ro2 | TxKind::Ro4) => {
                let sum = thread
                    .atomic(|tx| {
                        let mut s = 0usize;
                        for j in 0..width {
                            s = s.wrapping_add(tx.read(&cells[base + j].0)?);
                        }
                        Ok(s)
                    })
                    .expect("read transaction is never cancelled");
                sink = sink.wrapping_add(sum);
            }
            (ApiMode::Full, TxKind::Rw1 | TxKind::Rw2 | TxKind::Rw4) => {
                thread
                    .atomic(|tx| {
                        for j in 0..width {
                            let v = tx.read(&cells[base + j].0)?;
                            tx.write(&cells[base + j].0, encode_int(spectm::decode_int(v) + 1))?;
                        }
                        Ok(())
                    })
                    .expect("write transaction is never cancelled");
            }
        }
    });
    std::hint::black_box(sink);
    ns
}

/// One row of the Figure 5 output.
#[derive(Debug, Clone)]
pub struct Fig5Row {
    /// Array size in elements (128, 1024 or 32768 in the paper).
    pub array_size: usize,
    /// Variant label (e.g. `val-short`).
    pub variant: String,
    /// Transaction kind label.
    pub kind: &'static str,
    /// Execution time normalized to the sequential baseline (1.0 = equal).
    pub normalized_time: f64,
    /// Absolute nanoseconds per operation.
    pub ns_per_op: f64,
}

/// Runs the Figure 5 sweep for the paper's variant set.
pub fn run_fig5(array_sizes: &[usize], iters: usize) -> Vec<Fig5Row> {
    let mut rows = Vec::new();
    for &size in array_sizes {
        for kind in TxKind::all() {
            let seq = sequential_ns_per_op(kind, size, iters);
            rows.push(Fig5Row {
                array_size: size,
                variant: "sequential".into(),
                kind: kind.label(),
                normalized_time: 1.0,
                ns_per_op: seq,
            });
            let mut push = |variant: &str, ns: f64| {
                rows.push(Fig5Row {
                    array_size: size,
                    variant: variant.into(),
                    kind: kind.label(),
                    normalized_time: ns / seq,
                    ns_per_op: ns,
                });
            };
            let config = Config {
                orec_table_size: 1 << 18,
                ..Config::global()
            };
            let orec = OrecStm::with_config(config);
            push(
                "orec-full-g",
                stm_ns_per_op(&orec, ApiMode::Full, kind, size, iters),
            );
            push(
                "orec-short-g",
                stm_ns_per_op(&orec, ApiMode::Short, kind, size, iters),
            );
            let tvar = TvarStm::with_config(config);
            push(
                "tvar-short-g",
                stm_ns_per_op(&tvar, ApiMode::Short, kind, size, iters),
            );
            let val = ValShort::with_config(config);
            push(
                "val-full",
                stm_ns_per_op(&val, ApiMode::Full, kind, size, iters),
            );
            push(
                "val-short",
                stm_ns_per_op(&val, ApiMode::Short, kind, size, iters),
            );
        }
    }
    rows
}

/// [`ns_per_op`] after a warm-up of an eighth of the iterations, which
/// faults in the pages of a large orec table before the clock starts.
fn warm_ns_per_op(iters: usize, mut op: impl FnMut()) -> f64 {
    ns_per_op(iters / 8, &mut op);
    ns_per_op(iters, op)
}

/// One row of the ablation output.
#[derive(Debug, Clone)]
pub struct AblationRow {
    /// The design choice being varied.
    pub panel: &'static str,
    /// The setting measured.
    pub series: &'static str,
    /// Locations written per transaction, or orecs in the table.
    pub x: usize,
    /// Absolute nanoseconds per transaction.
    pub ns_per_op: f64,
}

/// A two-location short read-write transaction adding 2 to each cell.
#[inline]
fn short_rw2<S: Stm>(thread: &mut S::Thread, a: &S::Cell, b: &S::Cell) {
    loop {
        let va = thread.rw_read(0, a);
        let vb = thread.rw_read(1, b);
        if !thread.rw_is_valid(2) {
            continue;
        }
        if thread.rw_commit(2, &[va + 2, vb + 2]) {
            break;
        }
    }
}

/// Runs the four §4.4.2 ablations, single-threaded, `iters` transactions
/// per data point:
///
/// * hash-indexed vs linear write sets for full transactions that write
///   4, 16 or 64 locations and read each back (Spear et al.);
/// * encounter-time vs commit-time locking in short read-write
///   transactions (the ablation discussed around Figure 9(c));
/// * orec-table size, 2^8 to 2^20: smaller tables increase false sharing
///   between unrelated cells (the cost the TVar layout eliminates);
/// * contention-manager backoff on vs off — single-threaded this shows the
///   zero-conflict overhead is nil, the property the paper's
///   randomized-linear scheme is chosen for.
pub fn run_ablation(iters: usize) -> Vec<AblationRow> {
    let mut rows = Vec::new();
    let base = Config {
        orec_table_size: 1 << 16,
        ..Config::global()
    };

    for (series, write_set) in [
        ("hashed", WriteSetKind::Hashed),
        ("linear", WriteSetKind::Linear),
    ] {
        for x in [4usize, 16, 64] {
            let stm = TvarStm::with_config(Config { write_set, ..base });
            let cells: Vec<_> = (0..x).map(|i| stm.new_cell(i)).collect();
            let mut thread = stm.register();
            let ns_per_op = warm_ns_per_op(iters, || {
                let sum = thread.atomic(|tx| {
                    for cell in &cells {
                        let v = tx.read(cell)?;
                        tx.write(cell, v + 2)?;
                    }
                    // Read-after-write pass: must hit the write set.
                    let mut sum = 0usize;
                    for cell in &cells {
                        sum = sum.wrapping_add(tx.read(cell)?);
                    }
                    Ok(sum)
                });
                std::hint::black_box(sum);
            });
            rows.push(AblationRow {
                panel: "write set",
                series,
                x,
                ns_per_op,
            });
        }
    }

    for (series, short_locking) in [
        ("encounter-time", ShortLocking::Encounter),
        ("commit-time", ShortLocking::Commit),
    ] {
        let stm = TvarStm::with_config(Config {
            short_locking,
            ..base
        });
        let (a, b) = (stm.new_cell(0), stm.new_cell(0));
        let mut thread = stm.register();
        rows.push(AblationRow {
            panel: "short-rw locking",
            series,
            x: 2,
            ns_per_op: warm_ns_per_op(iters, || short_rw2::<TvarStm>(&mut thread, &a, &b)),
        });
    }

    for bits in [8usize, 12, 16, 20] {
        let stm = OrecStm::with_config(Config {
            orec_table_size: 1 << bits,
            ..Config::global()
        });
        let cells: Vec<_> = (0..1024usize).map(|i| stm.new_cell(i)).collect();
        let mut thread = stm.register();
        let mut i = 0usize;
        rows.push(AblationRow {
            panel: "orec table size",
            series: "orec-short-g",
            x: 1 << bits,
            ns_per_op: warm_ns_per_op(iters, || {
                i = (i + 7) % 1024;
                short_rw2::<OrecStm>(&mut thread, &cells[i], &cells[(i + 511) % 1024]);
            }),
        });
    }

    for (series, backoff) in [("on", true), ("off", false)] {
        let stm = TvarStm::with_config(Config { backoff, ..base });
        let cell = stm.new_cell(0);
        let mut thread = stm.register();
        rows.push(AblationRow {
            panel: "backoff",
            series,
            x: 1,
            ns_per_op: warm_ns_per_op(iters, || {
                let done = thread.atomic(|tx| {
                    let v = tx.read(&cell)?;
                    tx.write(&cell, v + 1)?;
                    Ok(())
                });
                std::hint::black_box(done);
            }),
        });
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_report_sensible_widths() {
        assert_eq!(TxKind::SingleRead.width(), 1);
        assert_eq!(TxKind::Ro4.width(), 4);
        assert!(TxKind::Rw2.is_write());
        assert!(!TxKind::Ro2.is_write());
    }

    #[test]
    fn sequential_baseline_is_positive() {
        for kind in TxKind::all() {
            assert!(sequential_ns_per_op(kind, 128, 2_000) > 0.0);
        }
    }

    #[test]
    fn stm_measurement_runs_for_all_kinds() {
        let stm = ValShort::new();
        for kind in TxKind::all() {
            let short = stm_ns_per_op(&stm, ApiMode::Short, kind, 128, 2_000);
            let full = stm_ns_per_op(&stm, ApiMode::Full, kind, 128, 2_000);
            assert!(short > 0.0 && full > 0.0);
        }
    }

    #[test]
    fn fig5_rows_cover_every_variant_and_kind() {
        let rows = run_fig5(&[128], 500);
        // 6 variants (incl. sequential) x 6 kinds.
        assert_eq!(rows.len(), 36);
        assert!(rows.iter().all(|r| r.ns_per_op > 0.0));
    }
}
