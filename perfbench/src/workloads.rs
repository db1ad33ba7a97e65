//! The four workloads. Each round carries one seeded input σ through every
//! policy of its workload; the harness in [`crate::measure`] repeats rounds
//! for the measured time.

use crate::report::report_canon;
use crate::trace::{
    now_ns, timed, Clocked, GenTotals, Ledger, RunRows, ShardLedger, ShardRows, SpanLog, Traced,
    TracedShard,
};
use cioq_core::{
    CrossbarGreedyUnit, CrossbarPreemptiveGreedy, GreedyMatching, PreemptiveGreedy, ShardedGm,
    ShardedPg,
};
use cioq_experiments::{measure_ratio, run_policy, PolicyKind};
use cioq_model::{SlotId, SwitchConfig, Topology};
use cioq_opt::opt_upper_bound;
use cioq_sim::{
    run_cioq_sharded, ArrivalSource, DelayMatrix, Engine, EngineSnapshot, ExecMode, PolicyError,
    RunOptions, RunOutcome, RunReport, ShardedOptions, ShardedOutcome, StreamingSource, Trace,
    TraceSource,
};
use cioq_traffic::{
    gen_trace, stream_gen_from, BernoulliUniform, FullFabricChurn, OnOffBursty, SlotGen,
    TrafficGen, ValueDist,
};
use std::cell::RefCell;
use std::sync::Arc;

/// Workload names, in the order `--workload all` runs them.
pub const NAMES: [&str; 4] = ["cioq-churn", "sharded-churn", "xbar-service", "certify"];

/// Ports of the churn switch.
const CHURN_PORTS: usize = 256;
/// Arrival slots of one churn round: twice the 128 slots the rotating
/// pattern needs to revisit every cell, so half the run is steady state.
const CHURN_SLOTS: SlotId = 256;
/// Shards of `sharded-churn`.
const SHARDS: usize = 2;
/// Slots of the short traced run that observes what `ExecMode::Auto`
/// resolves to.
const AUTO_PROBE_SLOTS: SlotId = 8;
/// Ports of the service crossbar.
const XBAR_PORTS: usize = 128;
/// Arrival slots of one service round.
const XBAR_SLOTS: SlotId = 2048;
/// Checkpoint cadence of the service runs: every quarter of the stream.
const XBAR_CHECKPOINT_EVERY: SlotId = XBAR_SLOTS / 4;
/// Streaming channel depth.
const XBAR_DEPTH: usize = 4;
/// Ports of the certified switches.
const CERT_PORTS: usize = 16;
/// Arrival slots of one certified input: short enough for tens of rounds
/// per run, since each round is one slot-time sample.
const CERT_SLOTS: SlotId = 32;

fn zipf() -> ValueDist {
    ValueDist::Zipf {
        max: 64,
        exponent: 1.1,
    }
}

/// What one round produced.
#[derive(Debug, Default)]
pub struct RoundOut {
    /// Set-up time: input generation plus engine and policy construction.
    pub setup_ns: u64,
    /// Time from the first slot of the round's first run to the end of its
    /// last, excluding set-up and output checks.
    pub work_ns: u64,
    /// Arrival slots of the round's input.
    pub slots: u64,
    /// Host time per slot of the input, summed over the policies that
    /// carried it: one sample per clocked slot (for `certify`, one per
    /// round).
    pub slot_ns: Vec<u64>,
    /// Canonical report texts of the round, in run order (the digest).
    pub canon: Vec<String>,
    /// Operations (policy runs) attempted.
    pub ops: u64,
    /// One entry per failed operation.
    pub failures: Vec<String>,
}

impl RoundOut {
    fn check(&mut self, what: &str, result: Result<(), String>) {
        if let Err(e) = result {
            self.failures.push(format!("{what}: {e}"));
        }
    }

    fn check_report(&mut self, r: &RunReport) {
        self.check(&r.policy.clone(), r.check_conservation());
        self.canon.push(report_canon(r));
    }
}

/// Sequential-engine totals of the traced runs.
#[derive(Debug, Default, Clone)]
pub struct SeqTotals {
    /// Wall time of the run calls.
    pub wall_ns: u64,
    /// Engine slots the runs processed (drain slots included).
    pub slots: u64,
    /// Folded per-call costs.
    pub calls: crate::trace::SlotRow,
    /// Policy call counts.
    pub counts: crate::trace::PolicyCounts,
    /// Packets offered to runs that started at slot 0.
    pub arrived: u64,
    /// Of those, packets the policy rejected on arrival.
    pub rejected: u64,
    /// Of those, packets a policy preempted from any queue.
    pub preempted: u64,
}

/// Sharded-engine totals of the traced runs.
#[derive(Debug, Default, Clone)]
pub struct ShardTotals {
    /// Wall time of the run calls.
    pub wall_ns: u64,
    /// Engine slots.
    pub slots: u64,
    /// Shards per run.
    pub k: u64,
    /// Summed worker admission time / count, proposal time.
    pub admit_ns: u64,
    /// Worker admissions.
    pub admits: u64,
    /// Worker proposal time summed over shards.
    pub propose_ns: u64,
    /// Coordinator merge time.
    pub merge_ns: u64,
    /// Merge calls (scheduling cycles).
    pub merges: u64,
    /// Critical-path worker time.
    pub critical_ns: u64,
    /// Barrier wait from load imbalance, summed over shards.
    pub imbalance_ns: u64,
}

/// Everything the traced rounds measured, per layer.
#[derive(Debug, Default)]
pub struct Layers {
    /// Traced rounds folded in.
    pub rounds: u64,
    /// Input generation time and slots generated.
    pub gen_ns: u64,
    /// Slots generated.
    pub gen_slots: u64,
    /// Sequential engine and policies.
    pub seq: SeqTotals,
    /// Sharded engine.
    pub shard: ShardTotals,
    /// Streaming source: pull time, slots pulled, producer stalls.
    pub stream_ns: u64,
    /// Slots pulled from streams.
    pub stream_slots: u64,
    /// Producer backpressure stalls.
    pub stalls: u64,
    /// Checkpoints taken (each encoded once).
    pub snap_count: u64,
    /// Encoded checkpoint bytes.
    pub snap_bytes: u64,
    /// `to_bytes` time.
    pub encode_ns: u64,
    /// `from_bytes` time and calls.
    pub decode_ns: u64,
    /// `from_bytes` calls.
    pub decodes: u64,
    /// `Engine::restore` time and calls.
    pub restore_ns: u64,
    /// `Engine::restore` calls.
    pub restores: u64,
    /// `opt_upper_bound` time, calls and packets bounded.
    pub bound_ns: u64,
    /// `opt_upper_bound` calls.
    pub bounds: u64,
    /// Packets in the bounded traces.
    pub bound_pkts: u64,
    /// `run_policy` time and calls.
    pub sim_ns: u64,
    /// `run_policy` calls.
    pub sims: u64,
    /// Sharded runs under `ExecMode::Auto`: time and input slots.
    pub auto_ns: u64,
    /// Input slots of the `ExecMode::Auto` rounds.
    pub auto_slots: u64,
}

impl Layers {
    /// Fold in a sequential run. `report` is the run's report when the run
    /// started at slot 0 (a resumed run's report repeats the losses before
    /// its checkpoint).
    fn add_seq(&mut self, rows: &RunRows, wall_ns: u64, slots: u64, report: Option<&RunReport>) {
        let t = rows.total();
        let s = &mut self.seq;
        if let Some(r) = report {
            let l = &r.losses;
            s.arrived += r.arrived;
            s.rejected += l.rejected;
            s.preempted += l.preempted_input + l.preempted_crossbar + l.preempted_output;
        }
        s.wall_ns += wall_ns;
        s.slots += slots;
        s.calls.admit_ns += t.admit_ns;
        s.calls.schedule_ns += t.schedule_ns;
        s.calls.transmit_ns += t.transmit_ns;
        s.calls.source_ns += t.source_ns;
        let c = rows.counts;
        s.counts.admits += c.admits;
        s.counts.cycles += c.cycles;
        s.counts.transfers += c.transfers;
        s.counts.capacity += c.capacity;
    }

    fn add_shard(&mut self, rows: &ShardRows, wall_ns: u64, slots: u64, k: usize) {
        let t = rows.run.total();
        let s = &mut self.shard;
        s.wall_ns += wall_ns;
        s.slots += slots;
        s.k = k as u64;
        s.admit_ns += rows.admit_ns;
        s.admits += rows.admits;
        s.propose_ns += rows.propose_ns;
        s.merge_ns += t.merge_ns;
        s.merges += rows.run.counts.cycles;
        s.critical_ns += t.worker_ns;
        s.imbalance_ns += rows.imbalance_ns;
    }
}

/// Per-process state a workload's rounds share: tracing mode, span log
/// and layer totals.
#[derive(Debug, Default)]
pub struct Recorder {
    /// Per-call tracing on.
    pub traced: bool,
    /// Spans of the traced rounds.
    pub spans: SpanLog,
    /// Layer totals of the traced rounds.
    pub layers: Layers,
    /// The open span new spans nest under.
    open: Option<usize>,
    /// The current round is the warm-up (checked, not measured).
    pub warm_up: bool,
}

impl Recorder {
    /// Recorder for untraced (`traced == false`) or traced rounds.
    pub fn new(traced: bool) -> Self {
        Recorder {
            traced,
            ..Recorder::default()
        }
    }

    fn span(&mut self, name: &'static str, start: u64, end: u64, run: u32) {
        if self.traced {
            self.spans.push(name, start, end, self.open, run);
        }
    }

    /// Open a span that later spans nest under until [`Self::close`].
    fn open(&mut self, name: &'static str) -> Option<usize> {
        let t = now_ns();
        let id = self
            .traced
            .then(|| self.spans.push(name, t, t, self.open, 0))?;
        self.open = Some(id);
        Some(id)
    }

    fn close(&mut self, id: Option<usize>) {
        if let Some(id) = id {
            self.spans.fix_end(id, now_ns());
            self.open = self.spans.parent(id);
        }
    }

    fn push_run(&mut self, start: u64, rows: &RunRows, run: u32) {
        self.spans.push_run("run", start, rows, self.open, run);
    }

    fn run_id(&mut self) -> u32 {
        if self.traced {
            self.spans.new_run()
        } else {
            0
        }
    }

    fn begin_round(&mut self) -> Option<usize> {
        if self.traced {
            self.layers.rounds += 1;
        }
        self.open("round")
    }
}

/// Facts about a workload for the run manifest.
#[derive(Debug, Clone)]
pub struct Describe {
    /// Canonical configuration text (hashed into the manifest).
    pub config: String,
    /// Generator `name()` strings.
    pub generators: Vec<String>,
    /// Threads the workload runs on.
    pub threads: usize,
    /// If the sharded engine runs: the execution mode of the measured
    /// runs, and the mode and thread count a short run under the default
    /// `ExecMode::Auto` was observed to use on this host.
    pub exec_mode: Option<(&'static str, &'static str, usize)>,
}

/// A workload: one seeded input, repeated in rounds.
pub trait Workload {
    /// Manifest facts.
    fn describe(&self) -> Describe;
    /// Run one round.
    fn round(&mut self, rec: &mut Recorder) -> RoundOut;
}

/// Build the named workload for `seed`.
pub fn build(name: &str, seed: u64) -> Option<Box<dyn Workload>> {
    Some(match name {
        "cioq-churn" => Box::new(CioqChurn { seed }),
        "sharded-churn" => Box::new(ShardedChurn {
            seed,
            reference: None,
        }),
        "xbar-service" => Box::new(XbarService { seed }),
        "certify" => Box::new(Certify { seed }),
        _ => return None,
    })
}

/// A constructed sequential policy: one of the paper's four algorithms.
pub enum SeqPolicy {
    /// GM (CIOQ).
    Gm(GreedyMatching),
    /// PG at β = 1 + √2 (CIOQ).
    Pg(PreemptiveGreedy),
    /// CGU (buffered crossbar).
    Cgu(CrossbarGreedyUnit),
    /// CPG at (β★, α★) (buffered crossbar).
    Cpg(CrossbarPreemptiveGreedy),
}

impl SeqPolicy {
    /// Run this policy on `engine` fed by `src`, through the tracing
    /// wrapper when the ledger is traced.
    pub fn run(
        self,
        engine: Engine,
        src: &mut dyn ArrivalSource,
        ledger: &RefCell<Ledger>,
        ports: usize,
    ) -> Result<RunOutcome, PolicyError> {
        macro_rules! go {
            ($p:expr, $run:ident) => {{
                let mut p = $p;
                if ledger.borrow().traced() {
                    engine.$run(&mut Traced::new(p, ledger, ports), src)
                } else {
                    engine.$run(&mut p, src)
                }
            }};
        }
        match self {
            SeqPolicy::Gm(p) => go!(p, run_cioq_full),
            SeqPolicy::Pg(p) => go!(p, run_cioq_full),
            SeqPolicy::Cgu(p) => go!(p, run_crossbar_full),
            SeqPolicy::Cpg(p) => go!(p, run_crossbar_full),
        }
    }
}

/// Run one sequential engine run with the slot clock (and the tracer, if
/// `traced`); returns the outcome, the slot rows and the source.
pub fn run_clocked<S: ArrivalSource>(
    engine: Engine,
    policy: SeqPolicy,
    source: S,
    traced: bool,
    ports: usize,
    slots: SlotId,
) -> (Result<RunOutcome, PolicyError>, RunRows, S) {
    let ledger = RefCell::new(Ledger::new(traced, slots as usize));
    let mut src = Clocked::new(source, &ledger);
    let out = policy.run(engine, &mut src, &ledger, ports);
    let rows = ledger.borrow_mut().finish(now_ns());
    (out, rows, src.inner)
}

/// Add `rows`' slot durations into the per-slot sums `acc`.
fn sum_slots(acc: &mut Vec<u64>, rows: &RunRows) {
    let d: Vec<u64> = rows.slot_durations().collect();
    if acc.is_empty() {
        *acc = d;
    } else {
        acc.truncate(d.len());
        for (a, x) in acc.iter_mut().zip(d) {
            *a += x;
        }
    }
}

fn churn_cfg() -> SwitchConfig {
    SwitchConfig::cioq(CHURN_PORTS, 8, 2)
}

fn churn_gen() -> FullFabricChurn {
    FullFabricChurn::new(2, 5, zipf())
}

fn churn_options() -> RunOptions {
    RunOptions {
        slots: Some(CHURN_SLOTS),
        drain: false,
        validate: false,
        ..RunOptions::default()
    }
}

/// Generate `gen`'s trace for `cfg` inside a `gen_trace` span.
fn traced_gen(
    rec: &mut Recorder,
    gen: &impl TrafficGen,
    cfg: &SwitchConfig,
    slots: SlotId,
    seed: u64,
) -> Trace {
    let t = now_ns();
    let trace = gen_trace(gen, cfg, slots, seed);
    let end = now_ns();
    rec.span("gen_trace", t, end, 0);
    rec.layers.gen_ns += end - t;
    rec.layers.gen_slots += slots;
    trace
}

/// `cioq-churn`: GM then PG on a saturated 256×256 CIOQ switch.
struct CioqChurn {
    seed: u64,
}

impl Workload for CioqChurn {
    fn describe(&self) -> Describe {
        Describe {
            config: format!(
                "cioq-churn|cioq n={CHURN_PORTS} b=8 s=2|slots={CHURN_SLOTS} drain=off|GM,PG"
            ),
            generators: vec![churn_gen().name()],
            threads: 1,
            exec_mode: None,
        }
    }

    fn round(&mut self, rec: &mut Recorder) -> RoundOut {
        let mut out = RoundOut {
            slots: CHURN_SLOTS,
            ..RoundOut::default()
        };
        let round = rec.begin_round();
        let cfg = churn_cfg();
        let setup = rec.open("setup");
        let t = now_ns();
        let trace = traced_gen(rec, &churn_gen(), &cfg, CHURN_SLOTS, self.seed);
        let runs = [
            (
                Engine::new(cfg.clone(), churn_options()),
                SeqPolicy::Gm(GreedyMatching::new()),
            ),
            (
                Engine::new(cfg.clone(), churn_options()),
                SeqPolicy::Pg(PreemptiveGreedy::new()),
            ),
        ];
        out.setup_ns = now_ns() - t;
        rec.close(setup);
        for (engine, policy) in runs {
            let run = rec.run_id();
            let t = now_ns();
            let (res, rows, _) = run_clocked(
                engine,
                policy,
                TraceSource::new(&trace),
                rec.traced,
                CHURN_PORTS,
                CHURN_SLOTS,
            );
            out.work_ns += rows.end - t;
            out.ops += 1;
            sum_slots(&mut out.slot_ns, &rows);
            match res {
                Ok(o) => {
                    out.check_report(&o.report);
                    if rec.traced {
                        rec.layers
                            .add_seq(&rows, rows.end - t, o.report.slots, Some(&o.report));
                        rec.push_run(t, &rows, run);
                    }
                }
                Err(e) => out.failures.push(format!("policy error: {e}")),
            }
        }
        rec.close(round);
        out
    }
}

/// Run sharded GM under the default `ExecMode::Auto` on the first
/// [`AUTO_PROBE_SLOTS`] slots of the churn input, traced, and return the
/// execution mode it was seen to take and the threads that ran its calls.
fn observe_auto(seed: u64) -> (&'static str, usize) {
    let trace = gen_trace(&churn_gen(), &churn_cfg(), AUTO_PROBE_SLOTS, seed);
    let ledger = ShardLedger::new(true, AUTO_PROBE_SLOTS as usize, SHARDS);
    let ran = run_sharded(
        false,
        &trace,
        AUTO_PROBE_SLOTS,
        ExecMode::Auto,
        ledger.clone(),
    );
    let threads = ledger.finish(now_ns()).threads;
    let mode = match (ran, threads) {
        (Ok(_), 1) => "Inline",
        (Ok(_), n) if n > 1 => "Threads",
        _ => "unobserved",
    };
    (mode, threads)
}

/// `sharded-churn`: the `cioq-churn` input through the sharded engine at
/// K = 2. The measured runs execute inline: on a 2-core host the default
/// `ExecMode::Auto` resolves to threads, whose run-to-run spread no bound
/// can hold, so traced runs time `Auto` beside them instead
/// (`shard.auto_slowdown`).
struct ShardedChurn {
    seed: u64,
    /// Sequential GM and PG reports on the same σ, computed once.
    reference: Option<Vec<RunReport>>,
}

impl ShardedChurn {
    fn reference(&mut self, trace: &Trace) -> &[RunReport] {
        self.reference.get_or_insert_with(|| {
            let cfg = churn_cfg();
            [
                SeqPolicy::Gm(GreedyMatching::new()),
                SeqPolicy::Pg(PreemptiveGreedy::new()),
            ]
            .into_iter()
            .filter_map(|p| {
                let (res, _, _) = run_clocked(
                    Engine::new(cfg.clone(), churn_options()),
                    p,
                    TraceSource::new(trace),
                    false,
                    CHURN_PORTS,
                    CHURN_SLOTS,
                );
                res.ok().map(|o| o.report)
            })
            .collect()
        })
    }
}

/// Sharded GM (`false`) or PG (`true`) on the first `slots` slots of
/// `trace` under `mode`.
fn run_sharded(
    pg: bool,
    trace: &Trace,
    slots: SlotId,
    mode: ExecMode,
    ledger: Arc<ShardLedger>,
) -> Result<ShardedOutcome, PolicyError> {
    let mut options = ShardedOptions::new(SHARDS);
    options.mode = mode;
    options.slots = Some(slots);
    options.drain = false;
    let cfg = churn_cfg();
    if pg {
        run_cioq_sharded(
            &cfg,
            &TracedShard::new(ShardedPg::new(), ledger),
            trace,
            options,
        )
    } else {
        run_cioq_sharded(
            &cfg,
            &TracedShard::new(ShardedGm::new(), ledger),
            trace,
            options,
        )
    }
}

impl Workload for ShardedChurn {
    fn describe(&self) -> Describe {
        let (auto, auto_threads) = observe_auto(self.seed);
        Describe {
            config: format!(
                "sharded-churn|cioq n={CHURN_PORTS} b=8 s=2|slots={CHURN_SLOTS} drain=off|\
                 K={SHARDS} mode=Inline|GM,PG"
            ),
            generators: vec![churn_gen().name()],
            threads: 1,
            exec_mode: Some(("Inline", auto, auto_threads)),
        }
    }

    fn round(&mut self, rec: &mut Recorder) -> RoundOut {
        let mut out = RoundOut {
            slots: CHURN_SLOTS,
            ..RoundOut::default()
        };
        let round = rec.begin_round();
        let setup = rec.open("setup");
        let t = now_ns();
        let trace = traced_gen(rec, &churn_gen(), &churn_cfg(), CHURN_SLOTS, self.seed);
        out.setup_ns = now_ns() - t;
        rec.close(setup);
        let mut reports = Vec::new();
        for pg in [false, true] {
            let ledger = ShardLedger::new(rec.traced, CHURN_SLOTS as usize, SHARDS);
            let run = rec.run_id();
            let t = now_ns();
            let res = run_sharded(pg, &trace, CHURN_SLOTS, ExecMode::Inline, ledger.clone());
            let rows = ledger.finish(now_ns());
            out.work_ns += rows.run.end - t;
            out.ops += 1;
            sum_slots(&mut out.slot_ns, &rows.run);
            match res {
                Ok(o) => {
                    out.check_report(&o.report);
                    if rec.traced {
                        rec.layers
                            .add_shard(&rows, rows.run.end - t, o.report.slots, SHARDS);
                        rec.push_run(t, &rows.run, run);
                    }
                    reports.push(o.report);
                }
                Err(e) => out.failures.push(format!("policy error: {e}")),
            }
        }
        if rec.traced && !rec.warm_up && rec.layers.auto_slots == 0 {
            // The default mode, untraced, beside the measured inline runs;
            // once per traced run, as a threaded round takes seconds.
            for pg in [false, true] {
                let ledger = ShardLedger::new(false, CHURN_SLOTS as usize, SHARDS);
                let t = now_ns();
                let res = run_sharded(pg, &trace, CHURN_SLOTS, ExecMode::Auto, ledger);
                let end = now_ns();
                rec.span("run_auto", t, end, 0);
                rec.layers.auto_ns += end - t;
                out.ops += 1;
                // Checked against the reference below; kept out of the
                // digest, which untraced rounds must reproduce.
                match res {
                    Ok(o) => {
                        out.check(&o.report.policy.clone(), o.report.check_conservation());
                        reports.push(o.report);
                    }
                    Err(e) => out.failures.push(format!("policy error: {e}")),
                }
            }
            rec.layers.auto_slots += CHURN_SLOTS;
        }
        rec.close(round);
        let reference = self.reference(&trace);
        if reports.chunks(reference.len()).any(|r| r != reference) {
            out.failures
                .push("sharded reports differ from the sequential engine's".into());
        }
        out
    }
}

fn xbar_cfg() -> SwitchConfig {
    SwitchConfig::crossbar(XBAR_PORTS, 8, 2, 2)
}

fn xbar_options() -> RunOptions {
    let topo = Topology::two_tier(XBAR_PORTS, XBAR_PORTS, 2, 0, 4)
        .expect("two racks of 64 ports is a valid topology");
    RunOptions {
        checkpoint_every: Some(XBAR_CHECKPOINT_EVERY),
        validate: false,
        ..RunOptions::default()
    }
    .link(&DelayMatrix::new(topo))
}

fn xbar_gen() -> BernoulliUniform {
    BernoulliUniform::new(0.9, zipf())
}

/// `xbar-service`: the daemon path — streamed input, checkpoints,
/// kill/restore mid-stream — for CGU then CPG.
struct XbarService {
    seed: u64,
}

impl XbarService {
    /// Open a stream of the seeded generator at `snap`'s cursor (the start
    /// when `None`), through the timing wrapper when traced.
    fn stream(
        &self,
        gen: &GenTotals,
        traced: bool,
        snap: Option<&EngineSnapshot>,
    ) -> (StreamingSource, cioq_sim::StreamPump) {
        let cursor = snap.map_or(cioq_sim::StreamCursor::start(), |s| s.stream_cursor());
        let sg = xbar_gen().slots(self.seed);
        if traced {
            stream_gen_from(gen.wrap(sg), &xbar_cfg(), XBAR_SLOTS, XBAR_DEPTH, cursor)
        } else {
            stream_gen_from(sg, &xbar_cfg(), XBAR_SLOTS, XBAR_DEPTH, cursor)
        }
    }

    /// One streamed run, from `start_slot` (0, or a restored checkpoint's
    /// slot) to the end of the stream.
    fn streamed_run(
        &self,
        rec: &mut Recorder,
        out: &mut RoundOut,
        engine: Engine,
        policy: SeqPolicy,
        stream: (StreamingSource, cioq_sim::StreamPump),
        start_slot: SlotId,
    ) -> (Option<RunOutcome>, RunRows) {
        let (src, pump) = stream;
        let run = rec.run_id();
        let t = now_ns();
        let (res, rows, src) = run_clocked(
            engine,
            policy,
            src,
            rec.traced,
            XBAR_PORTS,
            XBAR_SLOTS - start_slot,
        );
        out.work_ns += rows.end - t;
        out.ops += 1;
        let stalls = src.stalls();
        drop(src);
        pump.join();
        let res = match res {
            Ok(o) => Some(o),
            Err(e) => {
                out.failures.push(format!("policy error: {e}"));
                None
            }
        };
        if let (Some(o), true) = (&res, rec.traced) {
            let slots = o.report.slots - start_slot;
            let report = (start_slot == 0).then_some(&o.report);
            rec.layers.add_seq(&rows, rows.end - t, slots, report);
            rec.layers.stream_ns += rows.total().source_ns;
            rec.layers.stream_slots += rows.rows.len() as u64;
            rec.layers.stalls += stalls;
            rec.push_run(t, &rows, run);
        }
        (res, rows)
    }
}

impl Workload for XbarService {
    fn describe(&self) -> Describe {
        Describe {
            config: format!(
                "xbar-service|crossbar n={XBAR_PORTS} b=8 bc=2 s=2|two-tier racks=2 intra=0 \
                 inter=4|slots={XBAR_SLOTS} drain=on checkpoint_every={XBAR_CHECKPOINT_EVERY} \
                 depth={XBAR_DEPTH}|CGU,CPG|restore=middle checkpoint"
            ),
            generators: vec![xbar_gen().slots(self.seed).name()],
            threads: 2,
            exec_mode: None,
        }
    }

    fn round(&mut self, rec: &mut Recorder) -> RoundOut {
        let mut out = RoundOut {
            slots: XBAR_SLOTS,
            ..RoundOut::default()
        };
        let round = rec.begin_round();
        let cfg = xbar_cfg();
        let gen = GenTotals::default();
        for make in [
            || SeqPolicy::Cgu(CrossbarGreedyUnit::new()),
            || SeqPolicy::Cpg(CrossbarPreemptiveGreedy::new()),
        ] {
            let setup = rec.open("setup");
            let t = now_ns();
            let stream = self.stream(&gen, rec.traced, None);
            let engine = Engine::new(cfg.clone(), xbar_options());
            let policy = make();
            out.setup_ns += now_ns() - t;
            rec.close(setup);
            let (full, rows) = self.streamed_run(rec, &mut out, engine, policy, stream, 0);
            sum_slots(&mut out.slot_ns, &rows);
            let Some(full) = full else { continue };
            out.check_report(&full.report);

            // Persist every checkpoint, then kill at the middle one:
            // decode it, restore, re-feed the stream from its cursor.
            let t = now_ns();
            let mut bytes = Vec::with_capacity(full.checkpoints.len());
            for c in &full.checkpoints {
                let t = now_ns();
                bytes.push(c.to_bytes());
                let end = now_ns();
                rec.span("EngineSnapshot::to_bytes", t, end, 0);
                rec.layers.encode_ns += end - t;
            }
            let mid = bytes.len() / 2;
            let Some(mid_bytes) = bytes.get(mid) else {
                out.failures.push("service run took no checkpoint".into());
                continue;
            };
            let decode_start = now_ns();
            let decoded = EngineSnapshot::from_bytes(mid_bytes);
            let decode_ns = now_ns() - decode_start;
            rec.span(
                "EngineSnapshot::from_bytes",
                decode_start,
                decode_start + decode_ns,
                0,
            );
            let decoded = match decoded {
                Ok(d) => d,
                Err(e) => {
                    out.failures.push(format!("checkpoint decode: {e}"));
                    continue;
                }
            };
            let restore_start = now_ns();
            let restored = Engine::restore(&decoded, xbar_options());
            let restore_end = now_ns();
            rec.span("Engine::restore", restore_start, restore_end, 0);
            let restored = match restored {
                Ok(e) => e,
                Err(e) => {
                    out.failures.push(format!("restore: {e}"));
                    continue;
                }
            };
            out.work_ns += restore_end - t;
            if rec.traced {
                let l = &mut rec.layers;
                l.snap_count += bytes.len() as u64;
                l.snap_bytes += bytes.iter().map(|b| b.len() as u64).sum::<u64>();
                l.decode_ns += decode_ns;
                l.decodes += 1;
                l.restore_ns += restore_end - restore_start;
                l.restores += 1;
            }

            let setup = rec.open("setup");

            let t = now_ns();
            let stream = self.stream(&gen, rec.traced, Some(&decoded));
            let policy = make();
            out.setup_ns += now_ns() - t;
            rec.close(setup);
            let (resumed, _) =
                self.streamed_run(rec, &mut out, restored, policy, stream, decoded.slot());
            let Some(resumed) = resumed else { continue };
            out.check(
                &resumed.report.policy.clone(),
                resumed.report.check_conservation(),
            );
            let tail_equal = resumed.checkpoints.len() == bytes.len() - mid
                && resumed
                    .checkpoints
                    .iter()
                    .zip(&bytes[mid..])
                    .all(|(c, b)| c.to_bytes() == *b);
            if resumed.report != full.report || !tail_equal {
                out.failures.push(format!(
                    "{}: resumed run differs from the uninterrupted run",
                    full.report.policy
                ));
            }
        }
        let (gen_ns, gen_slots) = gen.get();
        rec.layers.gen_ns += gen_ns;
        rec.layers.gen_slots += gen_slots;
        rec.close(round);
        out
    }
}

fn cert_gen() -> OnOffBursty {
    OnOffBursty::new(0.9, 10.0, zipf())
}

/// `certify`: each algorithm's benefit against the certified OPT bound,
/// through `measure_ratio` as the experiment suite calls it.
struct Certify {
    seed: u64,
}

impl Certify {
    fn cases() -> [(PolicyKind, SwitchConfig); 4] {
        let cioq = SwitchConfig::cioq(CERT_PORTS, 8, 2);
        let xbar = SwitchConfig::crossbar(CERT_PORTS, 8, 2, 2);
        [
            (PolicyKind::Gm, cioq.clone()),
            (PolicyKind::pg_default(), cioq),
            (PolicyKind::Cgu, xbar.clone()),
            (PolicyKind::cpg_default(), xbar),
        ]
    }
}

impl Workload for Certify {
    fn describe(&self) -> Describe {
        Describe {
            config: format!(
                "certify|cioq n={CERT_PORTS} b=8 s=2|crossbar n={CERT_PORTS} b=8 bc=2 s=2|\
                 slots={CERT_SLOTS}|GM,PG,CGU,CPG|measure_ratio exact=false"
            ),
            generators: vec![cert_gen().name()],
            threads: 1,
            exec_mode: None,
        }
    }

    fn round(&mut self, rec: &mut Recorder) -> RoundOut {
        let mut out = RoundOut {
            slots: CERT_SLOTS,
            ..RoundOut::default()
        };
        let round = rec.begin_round();
        let setup = rec.open("setup");
        let t = now_ns();
        let cases = Self::cases();
        let traces: Vec<Trace> = cases
            .iter()
            .map(|(_, cfg)| traced_gen(rec, &cert_gen(), cfg, CERT_SLOTS, self.seed))
            .collect();
        out.setup_ns = now_ns() - t;
        rec.close(setup);
        for ((kind, cfg), trace) in cases.iter().zip(&traces) {
            let run = rec.run_id();
            out.ops += 1;
            let (benefit, bound) = if rec.traced {
                // The two calls measure_ratio makes, timed one by one.
                let (report, sim_ns) = timed(|| run_policy(*kind, cfg, trace));
                let t = now_ns();
                let bounds = opt_upper_bound(cfg, trace);
                let end = now_ns();
                rec.span("run_policy", t - sim_ns, t, run);
                rec.span("opt_upper_bound", t, end, run);
                out.work_ns += sim_ns + (end - t);
                let l = &mut rec.layers;
                l.sim_ns += sim_ns;
                l.sims += 1;
                l.bound_ns += end - t;
                l.bounds += 1;
                l.bound_pkts += trace.len() as u64;
                match report {
                    Ok(r) => {
                        out.check_report(&r);
                        (r.benefit.0, bounds.best())
                    }
                    Err(e) => {
                        out.failures.push(format!("policy error: {e}"));
                        continue;
                    }
                }
            } else {
                let t = now_ns();
                let row = measure_ratio(*kind, cfg, trace, false);
                out.work_ns += now_ns() - t;
                // measure_ratio keeps no report: re-run the policy outside
                // the timed work for the conservation check and digest.
                match run_policy(*kind, cfg, trace) {
                    Ok(r) if r.benefit.0 == row.benefit => out.check_report(&r),
                    Ok(_) => out
                        .failures
                        .push(format!("{}: benefit differs between runs", row.policy)),
                    Err(e) => out.failures.push(format!("policy error: {e}")),
                }
                (row.benefit, row.opt_bound)
            };
            out.canon.push(format!("{}|bound={bound}", kind.label()));
            if bound < benefit {
                out.failures.push(format!(
                    "{}: certified bound {bound} below benefit {benefit}",
                    kind.label()
                ));
            }
        }
        // measure_ratio has no slot boundaries to clock: the round's time
        // over its slots is one sample of the per-slot cost.
        out.slot_ns = vec![out.work_ns / CERT_SLOTS];
        rec.close(round);
        out
    }
}
