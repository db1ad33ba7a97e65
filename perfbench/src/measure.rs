//! The measurement harness: repeat a workload's rounds for the measured
//! time, check every round, and turn rounds into metrics.

use crate::report::{digest, golden, median, quantile, tail_quantile};
use crate::trace::now_ns;
use crate::workloads::{Layers, Recorder, Workload};

/// What one measurement phase (untraced or traced) produced.
#[derive(Debug, Default)]
pub struct Phase {
    /// Rounds run, the warm-up round included.
    pub rounds: usize,
    /// Input slots per second of work: the median over measured rounds.
    pub slots_per_s: f64,
    /// Median over measured rounds of the set-up time.
    pub setup_s: f64,
    /// Per-slot host times of the measured rounds (µs).
    pub slot_us: Vec<f64>,
    /// Operations attempted.
    pub ops: u64,
    /// Failed checks, one line each.
    pub failures: Vec<String>,
    /// Digest of the round's reports (equal for every round).
    pub digest: String,
}

impl Phase {
    /// Operations that failed a check.
    pub fn failed(&self) -> u64 {
        (self.failures.len() as u64).min(self.ops)
    }

    /// `(p50, tail, tail quantile)` of the per-slot host times.
    pub fn slot_percentiles(&self) -> (f64, f64, f64) {
        let mut v = self.slot_us.clone();
        let q = tail_quantile(v.len());
        (median(&mut v), quantile(&mut v, q), q)
    }
}

/// Run `workload`'s rounds for at least `seconds` of wall time. The first
/// round is a warm-up: it is checked and traced into the span log, but
/// its timings and layer totals are dropped. At least one round is
/// measured.
pub fn run_phase(workload: &mut dyn Workload, rec: &mut Recorder, seconds: f64) -> Phase {
    let deadline = now_ns() + (seconds * 1e9) as u64;
    let mut phase = Phase::default();
    let (mut rates, mut setups) = (Vec::new(), Vec::new());
    loop {
        rec.warm_up = phase.rounds == 0;
        let out = workload.round(rec);
        phase.ops += out.ops;
        phase.failures.extend(out.failures);
        let d = digest(out.canon.iter().map(String::as_str));
        if phase.rounds == 0 {
            phase.digest = d;
            rec.layers = Layers::default();
        } else {
            if d != phase.digest {
                phase.failures.push(format!(
                    "round {} reports differ from round 0",
                    phase.rounds
                ));
            }
            rates.push(out.slots as f64 / (out.work_ns.max(1) as f64 / 1e9));
            setups.push(out.setup_ns as f64 / 1e9);
            phase
                .slot_us
                .extend(out.slot_ns.iter().map(|&ns| ns as f64 / 1e3));
        }
        phase.rounds += 1;
        if phase.rounds >= 2 && now_ns() >= deadline {
            break;
        }
    }
    phase.slots_per_s = median(&mut rates);
    phase.setup_s = median(&mut setups);
    phase
}

/// Check the digest against the golden value recorded for this seed, if
/// any; returns the recorded value.
pub fn check_golden(workload: &str, seed: u64, phase: &mut Phase) -> Option<&'static str> {
    let g = golden(workload, seed)?;
    if g != phase.digest {
        phase.failures.push(format!(
            "report digest {} differs from the golden {g} recorded for seed {seed}",
            phase.digest
        ));
    }
    Some(g)
}

/// The end-to-end metrics of an untraced phase, as `(name, value, unit)`;
/// `peak_rss_mib` is the process's peak resident set.
pub fn end_to_end_metrics(p: &Phase, peak_rss_mib: f64) -> Vec<(&'static str, f64, &'static str)> {
    let (p50, tail, _) = p.slot_percentiles();
    vec![
        ("slots_per_s", p.slots_per_s, "1/s"),
        ("slot_p50_us", p50, "us"),
        ("slot_p99_us", tail, "us"),
        ("setup_s", p.setup_s, "s"),
        ("peak_rss_mib", peak_rss_mib, "MiB"),
    ]
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The per-layer metrics of a traced phase, as `(name, value, unit)`,
/// given the untraced and traced phases' `slots_per_s`. A layer a
/// workload does not call reads 0.
pub fn layer_metrics(
    l: &Layers,
    untraced_rate: f64,
    traced_rate: f64,
) -> Vec<(&'static str, f64, &'static str)> {
    let f = |x: u64| x as f64;
    let s = &l.seq;
    let c = &s.counts;
    let core_ns = s.calls.admit_ns + s.calls.schedule_ns + s.calls.transmit_ns;
    let sh = &l.shard;
    let k_wall = f(sh.k) * f(sh.wall_ns);
    vec![
        ("traffic.gen_s", ratio(f(l.gen_ns), f(l.rounds)) / 1e9, "s"),
        (
            "traffic.fill_ns_per_slot",
            ratio(f(l.gen_ns), f(l.gen_slots)),
            "ns/slot",
        ),
        (
            "core.admit_ns_per_pkt",
            ratio(f(s.calls.admit_ns), f(c.admits)),
            "ns/pkt",
        ),
        (
            "core.schedule_ns_per_cycle",
            ratio(f(s.calls.schedule_ns), f(c.cycles)),
            "ns/cycle",
        ),
        (
            "core.transmit_ns_per_slot",
            ratio(f(s.calls.transmit_ns), f(s.slots)),
            "ns/slot",
        ),
        ("core.busy_share", ratio(f(core_ns), f(s.wall_ns)), "share"),
        (
            "core.transfers_per_cycle",
            ratio(f(c.transfers), f(c.cycles)),
            "1/cycle",
        ),
        (
            "core.match_fill",
            ratio(f(c.transfers), f(c.capacity)),
            "share",
        ),
        (
            "core.reject_share",
            ratio(f(s.rejected), f(s.arrived)),
            "share",
        ),
        (
            "core.preempt_share",
            ratio(f(s.preempted), f(s.arrived)),
            "share",
        ),
        (
            "engine.self_ns_per_slot",
            ratio(
                f(s.wall_ns.saturating_sub(core_ns + s.calls.source_ns)),
                f(s.slots),
            ),
            "ns/slot",
        ),
        (
            "shard.admit_ns_per_pkt",
            ratio(f(sh.admit_ns), f(sh.admits)),
            "ns/pkt",
        ),
        (
            "shard.propose_ns_per_cycle",
            ratio(f(sh.propose_ns), f(sh.merges)),
            "ns/cycle",
        ),
        (
            "shard.merge_ns_per_cycle",
            ratio(f(sh.merge_ns), f(sh.merges)),
            "ns/cycle",
        ),
        (
            "shard.worker_busy_share",
            ratio(f(sh.admit_ns + sh.propose_ns), k_wall),
            "share",
        ),
        (
            "shard.wait_share",
            ratio(f(sh.imbalance_ns), k_wall),
            "share",
        ),
        (
            "shard.auto_slowdown",
            ratio(untraced_rate, ratio(f(l.auto_slots), f(l.auto_ns) / 1e9)),
            "ratio",
        ),
        (
            "shard.coord_ns_per_slot",
            ratio(
                f(sh.wall_ns.saturating_sub(sh.merge_ns + sh.critical_ns)),
                f(sh.slots),
            ),
            "ns/slot",
        ),
        (
            "stream.pull_ns_per_slot",
            ratio(f(l.stream_ns), f(l.stream_slots)),
            "ns/slot",
        ),
        (
            "stream.stall_share",
            ratio(f(l.stalls), f(l.stream_slots)),
            "share",
        ),
        (
            "snapshot.count",
            ratio(f(l.snap_count), f(l.rounds)),
            "count",
        ),
        (
            "snapshot.bytes",
            ratio(f(l.snap_bytes), f(l.snap_count)),
            "B",
        ),
        (
            "snapshot.encode_us",
            ratio(f(l.encode_ns), f(l.snap_count)) / 1e3,
            "us",
        ),
        (
            "snapshot.decode_us",
            ratio(f(l.decode_ns), f(l.decodes)) / 1e3,
            "us",
        ),
        (
            "snapshot.restore_us",
            ratio(f(l.restore_ns), f(l.restores)) / 1e3,
            "us",
        ),
        ("opt.bound_s", ratio(f(l.bound_ns), f(l.bounds)) / 1e9, "s"),
        (
            "opt.pkts_per_s",
            ratio(f(l.bound_pkts), f(l.bound_ns) / 1e9),
            "pkt/s",
        ),
        ("opt.sim_s", ratio(f(l.sim_ns), f(l.sims)) / 1e9, "s"),
        (
            "trace.overhead",
            ratio(untraced_rate, traced_rate) - 1.0,
            "ratio",
        ),
    ]
}
