//! Experiment driver and wall-clock benchmark for the EndBox reproduction.
//!
//! The library itself is empty; everything lives in `src/bin/`:
//!
//! * `src/bin/exp.rs` — the one experiment driver.
//!   `cargo run --release -p endbox-bench --bin exp -- <name>` runs one
//!   figure/table of the paper's §V evaluation (or one of the scaling
//!   experiments this repo adds on top), `exp all` runs them all
//!   in-process, `exp check` evaluates `endbox::eval::CLAIMS` on
//!   regenerated tables, and `exp` alone lists the catalogue. The
//!   committed `BENCH_*.json` files are exactly what `exp all` writes.
//! * `src/bin/exp_wallclock/` — the wall-clock benchmark named by the
//!   root `BENCHMARK.json` (its own README documents it). Its
//!   single-layer replays are where per-primitive wall-clock numbers
//!   (crypto ns/B, seal/open ns/pkt, …) come from, with medians and
//!   spread.
