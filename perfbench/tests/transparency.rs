//! The benchmark's wrappers must not change what they measure: traced,
//! clock-only and bare runs give byte-identical reports (and checkpoint
//! bytes) for all four policies on the sequential, sharded and streamed
//! paths.

use cioq_core::{
    CrossbarGreedyUnit, CrossbarPreemptiveGreedy, GreedyMatching, PreemptiveGreedy, ShardedCgu,
    ShardedCpg, ShardedGm, ShardedPg,
};
use cioq_model::SwitchConfig;
use cioq_sim::{
    run_cioq_sharded, run_crossbar_sharded, Engine, ExecMode, RunOptions, RunOutcome,
    ShardedOptions, ShardedOutcome, Trace, TraceSource,
};
use cioq_traffic::{gen_trace, stream_gen, BernoulliUniform, ValueDist};
use perfbench::trace::{GenTotals, ShardLedger, TracedShard};
use perfbench::workloads::{run_clocked, SeqPolicy};

const PORTS: usize = 16;
const SLOTS: u64 = 96;

fn cioq() -> SwitchConfig {
    SwitchConfig::cioq(PORTS, 4, 2)
}

fn xbar() -> SwitchConfig {
    SwitchConfig::crossbar(PORTS, 4, 2, 2)
}

fn gen() -> BernoulliUniform {
    BernoulliUniform::new(
        0.95,
        ValueDist::Zipf {
            max: 32,
            exponent: 1.1,
        },
    )
}

fn trace(cfg: &SwitchConfig) -> Trace {
    gen_trace(&gen(), cfg, SLOTS, 11)
}

fn options() -> RunOptions {
    RunOptions {
        checkpoint_every: Some(16),
        ..RunOptions::default()
    }
}

/// Report text plus every checkpoint's bytes.
fn bytes(o: &RunOutcome) -> (String, Vec<Vec<u8>>) {
    (
        format!("{:?}", o.report),
        o.checkpoints.iter().map(|c| c.to_bytes()).collect(),
    )
}

fn sharded_bytes(o: &ShardedOutcome) -> (String, Vec<Vec<u8>>) {
    (
        format!("{:?}", o.report),
        o.checkpoints.iter().map(|c| c.to_bytes()).collect(),
    )
}

fn policy(i: usize) -> (SeqPolicy, SwitchConfig) {
    match i {
        0 => (SeqPolicy::Gm(GreedyMatching::new()), cioq()),
        1 => (SeqPolicy::Pg(PreemptiveGreedy::new()), cioq()),
        2 => (SeqPolicy::Cgu(CrossbarGreedyUnit::new()), xbar()),
        _ => (SeqPolicy::Cpg(CrossbarPreemptiveGreedy::new()), xbar()),
    }
}

/// The policy run directly on the engine, with no wrapper at all.
fn bare(i: usize, cfg: &SwitchConfig, src: &mut dyn cioq_sim::ArrivalSource) -> RunOutcome {
    let engine = Engine::new(cfg.clone(), options());
    match i {
        0 => engine.run_cioq_full(&mut GreedyMatching::new(), src),
        1 => engine.run_cioq_full(&mut PreemptiveGreedy::new(), src),
        2 => engine.run_crossbar_full(&mut CrossbarGreedyUnit::new(), src),
        _ => engine.run_crossbar_full(&mut CrossbarPreemptiveGreedy::new(), src),
    }
    .expect("bare run")
}

#[test]
fn sequential_reports_do_not_depend_on_tracing() {
    for i in 0..4 {
        let (_, cfg) = policy(i);
        let tr = trace(&cfg);
        let want = bytes(&bare(i, &cfg, &mut TraceSource::new(&tr)));
        for traced in [false, true] {
            let (p, _) = policy(i);
            let engine = Engine::new(cfg.clone(), options());
            let (out, rows, _) =
                run_clocked(engine, p, TraceSource::new(&tr), traced, PORTS, SLOTS);
            let out = out.expect("wrapped run");
            assert_eq!(bytes(&out), want, "policy {i}, traced {traced}");
            assert_eq!(rows.rows.len() as u64, SLOTS, "one clocked row per slot");
        }
    }
}

#[test]
fn streamed_reports_do_not_depend_on_tracing() {
    for i in 0..4 {
        let (_, cfg) = policy(i);
        let (mut src, pump) = stream_gen(gen().slots(11), &cfg, SLOTS, 4);
        let want = bytes(&bare(i, &cfg, &mut src));
        drop(src);
        pump.join();
        for traced in [false, true] {
            let totals = GenTotals::default();
            let (src, pump) = stream_gen(totals.wrap(gen().slots(11)), &cfg, SLOTS, 4);
            let (p, _) = policy(i);
            let engine = Engine::new(cfg.clone(), options());
            let (out, _, src) = run_clocked(engine, p, src, traced, PORTS, SLOTS);
            drop(src);
            pump.join();
            assert_eq!(
                bytes(&out.expect("wrapped run")),
                want,
                "policy {i}, traced {traced}"
            );
            assert_eq!(
                totals.get().1,
                SLOTS,
                "every slot generated through the wrapper"
            );
        }
    }
}

/// Policy `i` on the sharded engine: bare (`traced == None`) or through
/// the wrapper with the given tracing level.
fn sharded(i: usize, traced: Option<bool>, mode: ExecMode) -> ShardedOutcome {
    let mut opts = ShardedOptions::new(2);
    opts.mode = mode;
    opts.checkpoint_every = Some(16);
    let (c, x) = (cioq(), xbar());
    let (tc, tx) = (trace(&c), trace(&x));
    let ledger = |t| ShardLedger::new(t, SLOTS as usize, 2);
    match (i, traced) {
        (0, None) => run_cioq_sharded(&c, &ShardedGm::new(), &tc, opts),
        (0, Some(t)) => run_cioq_sharded(
            &c,
            &TracedShard::new(ShardedGm::new(), ledger(t)),
            &tc,
            opts,
        ),
        (1, None) => run_cioq_sharded(&c, &ShardedPg::new(), &tc, opts),
        (1, Some(t)) => run_cioq_sharded(
            &c,
            &TracedShard::new(ShardedPg::new(), ledger(t)),
            &tc,
            opts,
        ),
        (2, None) => run_crossbar_sharded(&x, &ShardedCgu::new(), &tx, opts),
        (2, Some(t)) => run_crossbar_sharded(
            &x,
            &TracedShard::new(ShardedCgu::new(), ledger(t)),
            &tx,
            opts,
        ),
        (_, None) => run_crossbar_sharded(&x, &ShardedCpg::new(), &tx, opts),
        (_, Some(t)) => run_crossbar_sharded(
            &x,
            &TracedShard::new(ShardedCpg::new(), ledger(t)),
            &tx,
            opts,
        ),
    }
    .expect("sharded run")
}

#[test]
fn sharded_reports_do_not_depend_on_tracing() {
    for mode in [ExecMode::Inline, ExecMode::Threads] {
        for i in 0..4 {
            let want = sharded_bytes(&sharded(i, None, mode));
            for traced in [false, true] {
                assert_eq!(
                    sharded_bytes(&sharded(i, Some(traced), mode)),
                    want,
                    "policy {i}, {mode:?}, traced {traced}"
                );
            }
        }
    }
}

#[test]
fn sharded_slot_clock_ticks_once_per_slot() {
    let ledger = ShardLedger::new(true, SLOTS as usize, 2);
    let mut opts = ShardedOptions::new(2);
    opts.mode = ExecMode::Inline;
    opts.slots = Some(SLOTS);
    opts.drain = false;
    let tr = trace(&cioq());
    run_cioq_sharded(
        &cioq(),
        &TracedShard::new(ShardedGm::new(), ledger.clone()),
        &tr,
        opts,
    )
    .expect("sharded GM");
    let rows = ledger.finish(perfbench::trace::now_ns());
    assert_eq!(rows.run.rows.len() as u64, SLOTS);
    assert_eq!(
        rows.run.counts.cycles,
        SLOTS * 2,
        "one merge per cycle at speedup 2"
    );
    assert!(rows.admits > 0 && rows.propose_ns > 0);
}

#[test]
fn sharded_ledger_counts_the_threads_that_ran() {
    for (mode, want) in [(ExecMode::Inline, 1), (ExecMode::Threads, 3)] {
        let ledger = ShardLedger::new(true, SLOTS as usize, 2);
        let mut opts = ShardedOptions::new(2);
        opts.mode = mode;
        let tr = trace(&cioq());
        run_cioq_sharded(
            &cioq(),
            &TracedShard::new(ShardedGm::new(), ledger.clone()),
            &tr,
            opts,
        )
        .expect("sharded GM");
        let rows = ledger.finish(perfbench::trace::now_ns());
        assert_eq!(rows.threads, want, "{mode:?}: coordinator plus workers");
    }
}
