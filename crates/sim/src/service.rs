//! Service-mode daemon glue: run the engine against a live, push-fed
//! arrival stream instead of a pre-materialised [`crate::Trace`].
//!
//! One call wires the whole seam: it opens a bounded streaming channel
//! (see [`crate::stream`]), spawns the caller's producer on a feeder
//! thread, runs the engine until the producer closes the stream, drains
//! in-flight/calendar state (the usual drain loop — the arrival window
//! simply ends when the stream closes), and joins the feeder so producer
//! panics surface instead of vanishing. Checkpoints interleave with live
//! ingestion via the ordinary `checkpoint_every` option; serving an
//! engine built by [`Engine::restore`] re-attaches the stream at the
//! checkpoint's [`crate::EngineSnapshot::stream_cursor`].
//!
//! Backpressure is the channel's: a producer that outruns the switch
//! blocks on the bounded buffer (stall counted, nothing dropped) and the
//! run's transcript is independent of the channel depth.

use crate::engine::{Engine, RunOutcome};
use crate::policy::{CioqPolicy, CrossbarPolicy, PolicyError};
use crate::stream::{self, StreamCursor, StreamSender, StreamingSource};

/// What a service run produced: the ordinary [`RunOutcome`] plus the
/// backpressure stall count (diagnostic only — stalls never influence
/// the transcript).
#[derive(Debug)]
pub struct ServiceOutcome {
    /// Report, final state and collected checkpoints.
    pub outcome: RunOutcome,
    /// Times the producer blocked on the bounded buffer.
    pub stalls: u64,
}

/// Open a channel at `engine`'s stream cursor, spawn `produce` on a
/// feeder thread with that cursor, run the engine through `run` and join
/// the feeder.
fn serve<F>(
    engine: Engine,
    depth: usize,
    produce: F,
    run: impl FnOnce(Engine, &mut StreamingSource) -> Result<RunOutcome, PolicyError>,
) -> Result<ServiceOutcome, PolicyError>
where
    F: FnOnce(StreamSender, StreamCursor) + Send + 'static,
{
    let cursor = engine.stream_cursor();
    let (tx, mut source) = stream::channel_at(depth, cursor);
    let pump = stream::spawn_producer(tx, move |tx| produce(tx, cursor));
    let result = run(engine, &mut source);
    let stalls = source.stalls();
    // Drop the consumer before joining: if the run errored mid-stream the
    // producer may be blocked in `send`, and the hangup unblocks it.
    drop(source);
    pump.join();
    Ok(ServiceOutcome {
        outcome: result?,
        stalls,
    })
}

/// Serve a CIOQ policy from a live stream. `engine` is fresh from
/// [`Engine::try_new`] or restored from a checkpoint by
/// [`Engine::restore`]; the channel opens at its stream cursor (the slot
/// it starts at and the packets that arrived before), and `produce` runs
/// on a feeder thread with that cursor, pushing slot batches from there
/// on through the [`StreamSender`]. The run ends (and drains) when
/// `produce` returns or drops the sender. `depth` bounds the channel
/// buffer.
pub fn serve_cioq<P, F>(
    engine: Engine,
    policy: &mut P,
    depth: usize,
    produce: F,
) -> Result<ServiceOutcome, PolicyError>
where
    P: CioqPolicy + ?Sized,
    F: FnOnce(StreamSender, StreamCursor) + Send + 'static,
{
    serve(engine, depth, produce, |e, src| {
        e.run_cioq_full(policy, src)
    })
}

/// Serve a buffered-crossbar policy from a live stream; see
/// [`serve_cioq`].
pub fn serve_crossbar<P, F>(
    engine: Engine,
    policy: &mut P,
    depth: usize,
    produce: F,
) -> Result<ServiceOutcome, PolicyError>
where
    P: CrossbarPolicy + ?Sized,
    F: FnOnce(StreamSender, StreamCursor) + Send + 'static,
{
    serve(engine, depth, produce, |e, src| {
        e.run_crossbar_full(policy, src)
    })
}
