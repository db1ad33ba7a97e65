//! Outside-in instrumentation: wrappers around the library's public traits
//! that time every call from the benchmark's side of the boundary. Nothing
//! inside the program is instrumented.
//!
//! Two levels share one set of wrappers:
//!
//! * **slot clock** (untraced runs): the arrival-source wrapper (or, on
//!   the sharded engine, the merge wrapper at cycle 0) stamps each slot's
//!   start; nothing else is timed.
//! * **traced**: additionally every policy, worker, source and generator
//!   call is timed, and the costs are folded into the current slot's row.
//!
//! Per-call costs go into preallocated per-slot rows, so the slot loop
//! stays allocation-free; slot and run spans are assembled from the rows
//! after each run and written out when the benchmark ends.

use cioq_model::{Cycle, Packet, PortId, SlotId, SwitchConfig, Value};
use cioq_sim::{
    Admission, ArrivalSource, CandidateSet, CioqPolicy, CioqShardPolicy, CioqShardWorker,
    CrossbarPolicy, CrossbarShardPolicy, CrossbarShardWorker, FabricView, InputTransfer,
    MergeContext, MergeScratch, OutputSnapshot, OutputTransfer, Partition, ShardView, SwitchView,
    Transfer, TransmitChoice,
};
use cioq_traffic::SlotGen;
use std::cell::RefCell;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::thread::ThreadId;
use std::time::Instant;

/// Nanoseconds since the first call in this process (monotonic).
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    // detlint: allow(D2) reason="benchmark clock; timings never feed simulation state"
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Time `f`, returning its result and the elapsed nanoseconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let t = now_ns();
    let out = f();
    (out, now_ns() - t)
}

/// Folded per-call costs of one slot: the interval from this slot's start
/// to the next slot's start.
#[derive(Debug, Clone, Copy, Default)]
pub struct SlotRow {
    /// Slot start (ns, [`now_ns`] clock).
    pub start: u64,
    /// Policy admission time (sequential engine).
    pub admit_ns: u64,
    /// Policy scheduling time, all cycles and subphases.
    pub schedule_ns: u64,
    /// Policy transmission-phase time.
    pub transmit_ns: u64,
    /// Arrival-source time (pull plus any blocking on the producer).
    pub source_ns: u64,
    /// Shard workers' admit + propose time summed over shards: the
    /// critical path of an inline run, where shards run one after another.
    pub worker_ns: u64,
    /// Coordinator merge time (sharded engine).
    pub merge_ns: u64,
}

impl SlotRow {
    /// Time spent inside the traced calls during this slot.
    pub fn child_ns(&self) -> u64 {
        self.admit_ns
            + self.schedule_ns
            + self.transmit_ns
            + self.source_ns
            + self.worker_ns
            + self.merge_ns
    }
}

/// Call counts of the policy layer, for the useful/attempted ratios.
#[derive(Debug, Clone, Copy, Default)]
pub struct PolicyCounts {
    /// Admission decisions.
    pub admits: u64,
    /// Scheduling cycles.
    pub cycles: u64,
    /// Transfers returned by the scheduling calls.
    pub transfers: u64,
    /// Transfers the scheduling calls could have returned (ports per
    /// subphase call).
    pub capacity: u64,
}

/// Per-run ledger of the sequential engine, shared by the source and
/// policy wrappers of one run.
#[derive(Debug)]
pub struct Ledger {
    traced: bool,
    rows: Vec<SlotRow>,
    cur: SlotRow,
    open: bool,
    /// Policy call counts of the run.
    pub counts: PolicyCounts,
}

impl Ledger {
    /// Ledger for a run of at most `slots` clocked slots.
    pub fn new(traced: bool, slots: usize) -> Self {
        Ledger {
            traced,
            rows: Vec::with_capacity(slots + 1),
            cur: SlotRow::default(),
            open: false,
            counts: PolicyCounts::default(),
        }
    }

    /// Whether per-call tracing is on (otherwise only the slot clock).
    pub fn traced(&self) -> bool {
        self.traced
    }

    fn begin_slot(&mut self, t: u64) {
        if self.open {
            self.rows.push(self.cur);
        }
        self.cur = SlotRow {
            start: t,
            ..SlotRow::default()
        };
        self.open = true;
    }

    /// Close the run: the last slot's row is kept for its folded costs,
    /// `end` is when the run returned.
    pub fn finish(&mut self, end: u64) -> RunRows {
        if self.open {
            self.rows.push(self.cur);
            self.open = false;
        }
        RunRows {
            rows: std::mem::take(&mut self.rows),
            end,
            counts: self.counts,
        }
    }
}

/// Everything the slot clock and tracer saw of one run.
#[derive(Debug, Clone, Default)]
pub struct RunRows {
    /// One row per clocked slot, in slot order.
    pub rows: Vec<SlotRow>,
    /// When the run call returned (ns).
    pub end: u64,
    /// Policy call counts.
    pub counts: PolicyCounts,
}

impl RunRows {
    /// Slot durations from each slot's start to the next slot's start
    /// (the last clocked slot has no successor and yields no sample).
    pub fn slot_durations(&self) -> impl Iterator<Item = u64> + '_ {
        self.rows.windows(2).map(|w| w[1].start - w[0].start)
    }

    /// Sum of the folded per-call costs over the run.
    pub fn total(&self) -> SlotRow {
        self.rows.iter().fold(SlotRow::default(), |mut acc, r| {
            acc.admit_ns += r.admit_ns;
            acc.schedule_ns += r.schedule_ns;
            acc.transmit_ns += r.transmit_ns;
            acc.source_ns += r.source_ns;
            acc.worker_ns += r.worker_ns;
            acc.merge_ns += r.merge_ns;
            acc
        })
    }
}

/// Arrival-source wrapper: the slot clock (each `arrivals` call starts a
/// slot) and, when traced, the source's own cost, including blocking on
/// a streaming producer.
pub struct Clocked<'l, S> {
    /// The wrapped source.
    pub inner: S,
    ledger: &'l RefCell<Ledger>,
}

impl<'l, S> Clocked<'l, S> {
    /// Wrap `inner`, recording into `ledger`.
    pub fn new(inner: S, ledger: &'l RefCell<Ledger>) -> Self {
        Clocked { inner, ledger }
    }
}

impl<S: ArrivalSource> ArrivalSource for Clocked<'_, S> {
    fn arrivals(&mut self, view: &SwitchView<'_>, slot: SlotId, out: &mut Vec<Packet>) {
        let t = now_ns();
        let traced = {
            let mut l = self.ledger.borrow_mut();
            l.begin_slot(t);
            l.traced
        };
        self.inner.arrivals(view, slot, out);
        if traced {
            self.ledger.borrow_mut().cur.source_ns += now_ns() - t;
        }
    }

    fn horizon(&self) -> Option<SlotId> {
        self.inner.horizon()
    }

    fn in_arrival_window(&mut self, slot: SlotId) -> bool {
        if !self.ledger.borrow().traced {
            return self.inner.in_arrival_window(slot);
        }
        let (open, dt) = timed(|| self.inner.in_arrival_window(slot));
        self.ledger.borrow_mut().cur.source_ns += dt;
        open
    }
}

/// Policy wrapper timing every call of a sequential CIOQ or crossbar
/// policy (traced runs only).
pub struct Traced<'l, P> {
    /// The wrapped policy.
    pub inner: P,
    ledger: &'l RefCell<Ledger>,
    ports: u64,
}

impl<'l, P> Traced<'l, P> {
    /// Wrap `inner` on a switch with `ports` output ports.
    pub fn new(inner: P, ledger: &'l RefCell<Ledger>, ports: usize) -> Self {
        Traced {
            inner,
            ledger,
            ports: ports as u64,
        }
    }

    fn note_admit(&self, dt: u64) {
        let mut l = self.ledger.borrow_mut();
        l.cur.admit_ns += dt;
        l.counts.admits += 1;
    }

    fn note_schedule(&self, dt: u64, transfers: usize, new_cycle: bool) {
        let mut l = self.ledger.borrow_mut();
        l.cur.schedule_ns += dt;
        l.counts.transfers += transfers as u64;
        l.counts.capacity += self.ports;
        if new_cycle {
            l.counts.cycles += 1;
        }
    }

    fn note_transmit(&self, dt: u64) {
        self.ledger.borrow_mut().cur.transmit_ns += dt;
    }
}

impl<P: CioqPolicy> CioqPolicy for Traced<'_, P> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn admit(&mut self, view: &SwitchView<'_>, packet: &Packet) -> Admission {
        let (d, dt) = timed(|| self.inner.admit(view, packet));
        self.note_admit(dt);
        d
    }

    fn schedule(&mut self, view: &SwitchView<'_>, cycle: Cycle, out: &mut Vec<Transfer>) {
        let ((), dt) = timed(|| self.inner.schedule(view, cycle, out));
        self.note_schedule(dt, out.len(), true);
    }

    fn transmit(&mut self, view: &SwitchView<'_>, output: PortId) -> TransmitChoice {
        let (c, dt) = timed(|| self.inner.transmit(view, output));
        self.note_transmit(dt);
        c
    }
}

impl<P: CrossbarPolicy> CrossbarPolicy for Traced<'_, P> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn admit(&mut self, view: &SwitchView<'_>, packet: &Packet) -> Admission {
        let (d, dt) = timed(|| self.inner.admit(view, packet));
        self.note_admit(dt);
        d
    }

    fn schedule_input(
        &mut self,
        view: &SwitchView<'_>,
        cycle: Cycle,
        out: &mut Vec<InputTransfer>,
    ) {
        let ((), dt) = timed(|| self.inner.schedule_input(view, cycle, out));
        self.note_schedule(dt, out.len(), true);
    }

    fn schedule_output(
        &mut self,
        view: &SwitchView<'_>,
        cycle: Cycle,
        out: &mut Vec<OutputTransfer>,
    ) {
        let ((), dt) = timed(|| self.inner.schedule_output(view, cycle, out));
        self.note_schedule(dt, out.len(), false);
    }

    fn transmit(&mut self, view: &SwitchView<'_>, output: PortId) -> TransmitChoice {
        let (c, dt) = timed(|| self.inner.transmit(view, output));
        self.note_transmit(dt);
        c
    }
}

/// One shard worker's counters. Workers add with `Relaxed`: each value is
/// a statistic that publishes no other data, and the coordinator reads it
/// only after the engine's phase barrier has ordered the worker's writes
/// before the merge.
#[derive(Debug, Default)]
struct WorkerCounters {
    admit_ns: AtomicU64,
    admits: AtomicU64,
    propose_ns: AtomicU64,
    /// Admit time since the coordinator last folded this worker.
    pending_admit: AtomicU64,
    /// Propose time since the coordinator last folded this worker.
    pending_propose: AtomicU64,
}

impl WorkerCounters {
    fn admit(&self, dt: u64) {
        self.admit_ns.fetch_add(dt, Ordering::Relaxed);
        self.admits.fetch_add(1, Ordering::Relaxed);
        self.pending_admit.fetch_add(dt, Ordering::Relaxed);
    }

    fn propose(&self, dt: u64) {
        self.propose_ns.fetch_add(dt, Ordering::Relaxed);
        self.pending_propose.fetch_add(dt, Ordering::Relaxed);
    }
}

/// Coordinator-side state of a sharded run (merge calls only).
#[derive(Debug)]
struct Coord {
    ledger: Ledger,
    /// Per phase, Σ over shards of (slowest shard − this shard): time
    /// workers sat at the barrier waiting for the slowest one.
    imbalance_ns: u64,
}

/// Ledger of one sharded run, shared by the merge wrapper (coordinator
/// thread) and the worker wrappers (worker threads).
#[derive(Debug)]
pub struct ShardLedger {
    coord: Mutex<Coord>,
    workers: Vec<WorkerCounters>,
    /// Distinct threads that ran the policy's merge or worker calls.
    seen: Mutex<Vec<ThreadId>>,
}

/// What the tracer saw of one sharded run.
#[derive(Debug, Clone, Default)]
pub struct ShardRows {
    /// Slot rows (clock from the cycle-0 merge; worker and merge costs).
    pub run: RunRows,
    /// Worker admission time and count, summed over shards.
    pub admit_ns: u64,
    /// Worker admissions.
    pub admits: u64,
    /// Worker proposal time summed over shards.
    pub propose_ns: u64,
    /// Barrier wait caused by load imbalance, summed over shards.
    pub imbalance_ns: u64,
    /// Distinct threads that ran the policy's merge or worker calls
    /// (traced runs; 1 when the shards ran inline on the coordinator).
    pub threads: usize,
}

impl ShardLedger {
    /// Ledger for a run of `slots` slots over `k` shards.
    pub fn new(traced: bool, slots: usize, k: usize) -> Arc<Self> {
        Arc::new(ShardLedger {
            coord: Mutex::new(Coord {
                ledger: Ledger::new(traced, slots),
                imbalance_ns: 0,
            }),
            workers: (0..k).map(|_| WorkerCounters::default()).collect(),
            seen: Mutex::new(Vec::with_capacity(k + 1)),
        })
    }

    /// Note that the calling thread ran one of the policy's calls.
    fn note_thread(&self) {
        let id = std::thread::current().id();
        let mut seen = self.seen.lock().expect("a traced call panicked");
        if !seen.contains(&id) {
            seen.push(id);
        }
    }

    fn coord(&self) -> std::sync::MutexGuard<'_, Coord> {
        self.coord.lock().expect("a traced merge panicked")
    }

    /// Fold the workers' pending costs into the open slot row.
    fn fold_workers(&self, c: &mut Coord) {
        for take in [
            |w: &WorkerCounters| w.pending_admit.swap(0, Ordering::Relaxed),
            |w: &WorkerCounters| w.pending_propose.swap(0, Ordering::Relaxed),
        ] {
            let (mut sum, mut max) = (0u64, 0u64);
            let k = self.workers.len() as u64;
            for w in &self.workers {
                let v = take(w);
                sum += v;
                max = max.max(v);
            }
            c.ledger.cur.worker_ns += sum;
            c.imbalance_ns += max * k - sum;
        }
    }

    /// Close the run (`end` = when the run call returned).
    pub fn finish(&self, end: u64) -> ShardRows {
        let mut c = self.coord();
        self.fold_workers(&mut c);
        let sum = |f: fn(&WorkerCounters) -> &AtomicU64| -> u64 {
            self.workers
                .iter()
                .map(|w| f(w).load(Ordering::Relaxed))
                .sum()
        };
        ShardRows {
            run: c.ledger.finish(end),
            admit_ns: sum(|w| &w.admit_ns),
            admits: sum(|w| &w.admits),
            propose_ns: sum(|w| &w.propose_ns),
            imbalance_ns: c.imbalance_ns,
            threads: self.seen.lock().expect("a traced call panicked").len(),
        }
    }
}

/// Sharded-policy wrapper: the slot clock at every cycle-0 merge and, when
/// traced, merge timing plus timed workers.
pub struct TracedShard<P> {
    /// The wrapped sharded policy.
    pub inner: P,
    ledger: Arc<ShardLedger>,
}

impl<P> TracedShard<P> {
    /// Wrap `inner`, recording into `ledger`.
    pub fn new(inner: P, ledger: Arc<ShardLedger>) -> Self {
        TracedShard { inner, ledger }
    }

    fn traced(&self) -> bool {
        self.ledger.coord().ledger.traced
    }
}

/// A shard worker whose calls are timed into its shard's counters.
pub struct TracedWorker<W: ?Sized> {
    ledger: Arc<ShardLedger>,
    shard: usize,
    /// This worker's thread has been noted (a worker stays on one thread).
    noted: bool,
    inner: Box<W>,
}

impl<W: ?Sized> TracedWorker<W> {
    fn new(ledger: Arc<ShardLedger>, shard: usize, inner: Box<W>) -> Self {
        TracedWorker {
            ledger,
            shard,
            noted: false,
            inner,
        }
    }

    /// This shard's counters, noting the worker's thread on first use.
    fn counters(&mut self) -> &WorkerCounters {
        if !self.noted {
            self.ledger.note_thread();
            self.noted = true;
        }
        &self.ledger.workers[self.shard]
    }
}

impl<P: CioqShardPolicy> CioqShardPolicy for TracedShard<P> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn new_worker(
        &self,
        shard: usize,
        partition: &Partition,
        cfg: &SwitchConfig,
    ) -> Box<dyn CioqShardWorker> {
        let inner = self.inner.new_worker(shard, partition, cfg);
        if !self.traced() {
            return inner;
        }
        Box::new(TracedWorker::new(self.ledger.clone(), shard, inner))
    }

    fn merge(&self, ctx: &MergeContext<'_>, scratch: &mut MergeScratch, out: &mut Vec<Transfer>) {
        let t = now_ns();
        let traced = {
            let mut c = self.ledger.coord();
            if c.ledger.traced {
                self.ledger.fold_workers(&mut c);
                if c.ledger.counts.cycles == 0 {
                    // First merge of the run: note the coordinator.
                    self.ledger.note_thread();
                }
            }
            if ctx.cycle.index == 0 {
                c.ledger.begin_slot(t);
            }
            c.ledger.traced
        };
        self.inner.merge(ctx, scratch, out);
        if traced {
            let dt = now_ns() - t;
            let mut c = self.ledger.coord();
            c.ledger.cur.merge_ns += dt;
            c.ledger.counts.cycles += 1;
            c.ledger.counts.transfers += out.len() as u64;
            c.ledger.counts.capacity += ctx.cfg.n_outputs as u64;
        }
    }
}

impl CioqShardWorker for TracedWorker<dyn CioqShardWorker> {
    fn admit(&mut self, shard: &ShardView<'_>, packet: &Packet) -> Admission {
        let (d, dt) = timed(|| self.inner.admit(shard, packet));
        self.counters().admit(dt);
        d
    }

    fn propose(
        &mut self,
        shard: &ShardView<'_>,
        outputs: &OutputSnapshot,
        cycle: Cycle,
        out: &mut CandidateSet,
    ) {
        let ((), dt) = timed(|| self.inner.propose(shard, outputs, cycle, out));
        self.counters().propose(dt);
    }
}

impl<P: CrossbarShardPolicy> CrossbarShardPolicy for TracedShard<P> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn new_worker(
        &self,
        shard: usize,
        partition: &Partition,
        cfg: &SwitchConfig,
    ) -> Box<dyn CrossbarShardWorker> {
        let inner = self.inner.new_worker(shard, partition, cfg);
        if !self.traced() {
            return inner;
        }
        Box::new(TracedWorker::new(self.ledger.clone(), shard, inner))
    }
}

impl CrossbarShardWorker for TracedWorker<dyn CrossbarShardWorker> {
    fn admit(&mut self, shard: &ShardView<'_>, packet: &Packet) -> Admission {
        let (d, dt) = timed(|| self.inner.admit(shard, packet));
        self.counters().admit(dt);
        d
    }

    fn propose_input(&mut self, shard: &ShardView<'_>, cycle: Cycle, out: &mut Vec<InputTransfer>) {
        let ((), dt) = timed(|| self.inner.propose_input(shard, cycle, out));
        self.counters().propose(dt);
    }

    fn propose_output(
        &mut self,
        fabric: &FabricView<'_>,
        shard: usize,
        inbound_xbar: &[u32],
        outputs: &OutputSnapshot,
        cycle: Cycle,
        out: &mut Vec<OutputTransfer>,
    ) {
        let ((), dt) = timed(|| {
            self.inner
                .propose_output(fabric, shard, inbound_xbar, outputs, cycle, out)
        });
        self.counters().propose(dt);
    }
}

/// Slot-generator wrapper timing `fill_slot` on the producer thread.
pub struct TimedGen<G> {
    inner: G,
    totals: GenTotals,
}

/// Shared totals of [`TimedGen`]s: generation time and slots generated.
#[derive(Debug, Clone, Default)]
pub struct GenTotals {
    ns: Arc<AtomicU64>,
    slots: Arc<AtomicU64>,
}

impl GenTotals {
    /// Wrap a generator so its `fill_slot` calls add to these totals.
    pub fn wrap<G: SlotGen>(&self, inner: G) -> TimedGen<G> {
        TimedGen {
            inner,
            totals: self.clone(),
        }
    }

    /// `(ns, slots)` so far. Read after the producer thread was joined.
    pub fn get(&self) -> (u64, u64) {
        (
            self.ns.load(Ordering::Relaxed),
            self.slots.load(Ordering::Relaxed),
        )
    }
}

impl<G: SlotGen> SlotGen for TimedGen<G> {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn fill_slot(
        &mut self,
        cfg: &SwitchConfig,
        slot: SlotId,
        out: &mut Vec<(PortId, PortId, Value)>,
    ) {
        let ((), dt) = timed(|| self.inner.fill_slot(cfg, slot, out));
        self.totals.ns.fetch_add(dt, Ordering::Relaxed);
        self.totals.slots.fetch_add(1, Ordering::Relaxed);
    }
}

/// One recorded span. Slot spans carry the folded per-call time of their
/// slot in `child_ns`; self time is the span minus its child spans minus
/// `child_ns`.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer boundary or phase name.
    pub name: &'static str,
    /// Start (ns).
    pub start: u64,
    /// End (ns).
    pub end: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Operation (policy run) the span belongs to; 0 outside any run.
    pub run: u32,
    /// Folded time of timed calls inside the span that are not spans.
    pub child_ns: u64,
}

/// In-memory span log, written out when the benchmark ends.
#[derive(Debug, Default)]
pub struct SpanLog {
    spans: Vec<Span>,
    next_run: u32,
}

impl SpanLog {
    /// A fresh operation id.
    pub fn new_run(&mut self) -> u32 {
        self.next_run += 1;
        self.next_run
    }

    /// Record a finished span; returns its index (a parent handle).
    pub fn push(
        &mut self,
        name: &'static str,
        start: u64,
        end: u64,
        parent: Option<usize>,
        run: u32,
    ) -> usize {
        self.spans.push(Span {
            name,
            start,
            end,
            parent,
            run,
            child_ns: 0,
        });
        self.spans.len() - 1
    }

    /// The parent of span `id`.
    pub fn parent(&self, id: usize) -> Option<usize> {
        self.spans[id].parent
    }

    /// Set the end of span `id` (a span opened before its end was known).
    pub fn fix_end(&mut self, id: usize, end: u64) {
        self.spans[id].end = end;
    }

    /// Record a run span with one child span per clocked slot.
    pub fn push_run(
        &mut self,
        name: &'static str,
        start: u64,
        rows: &RunRows,
        parent: Option<usize>,
        run: u32,
    ) -> usize {
        let id = self.push(name, start, rows.end, parent, run);
        for (i, r) in rows.rows.iter().enumerate() {
            let end = rows.rows.get(i + 1).map_or(rows.end, |n| n.start);
            self.spans.push(Span {
                name: "slot",
                start: r.start,
                end,
                parent: Some(id),
                run,
                child_ns: r.child_ns(),
            });
        }
        id
    }

    /// Self time of every span: its duration minus its children's
    /// durations and its folded call time.
    pub fn self_times(&self) -> Vec<u64> {
        let mut covered: Vec<u64> = self.spans.iter().map(|s| s.child_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                covered[p] += s.end - s.start;
            }
        }
        self.spans
            .iter()
            .zip(covered)
            .map(|(s, c)| (s.end - s.start).saturating_sub(c))
            .collect()
    }

    /// Write the log as JSON lines, one span per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, (s, self_ns)) in self.spans.iter().zip(self.self_times()).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"child_ns\":{},\"end\":{},\"id\":{i},\"name\":\"{}\",\"parent\":{parent},\"run\":{},\"self_ns\":{self_ns},\"start\":{}}}",
                s.child_ns, s.end, s.name, s.run, s.start
            )?;
        }
        w.flush()
    }
}
