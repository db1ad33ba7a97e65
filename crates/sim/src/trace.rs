//! Packet traces: recorded input sequences with a tiny line-based file
//! format (no serializer dependency).

use cioq_model::{ModelError, Packet, PacketId, PortId, SlotId, SwitchConfig, Value};
use std::io::{self, BufRead, Write};

/// An input sequence σ: packets sorted by arrival slot, the order *within*
/// a slot being the arrival order of the paper's arrival phase (ids are
/// assigned in that order and strictly increase through the trace).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Trace {
    packets: Vec<Packet>,
}

/// Errors when reading a trace file.
#[derive(Debug)]
pub enum TraceError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// A malformed line (1-based line number and description).
    Parse(usize, String),
    /// Semantically invalid trace (unsorted, bad ports, ...).
    Model(ModelError),
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceError::Io(e) => write!(f, "trace io error: {e}"),
            TraceError::Parse(line, msg) => write!(f, "trace parse error at line {line}: {msg}"),
            TraceError::Model(e) => write!(f, "trace invalid: {e}"),
        }
    }
}

impl std::error::Error for TraceError {}

impl From<io::Error> for TraceError {
    fn from(e: io::Error) -> Self {
        TraceError::Io(e)
    }
}

impl Trace {
    /// Build a trace from `(slot, input, output, value)` tuples; sorts
    /// stably by slot (preserving intra-slot arrival order) and assigns ids.
    pub fn from_tuples(tuples: impl IntoIterator<Item = (SlotId, PortId, PortId, Value)>) -> Self {
        let mut raw: Vec<_> = tuples.into_iter().collect();
        raw.sort_by_key(|&(slot, ..)| slot);
        let packets = raw
            .into_iter()
            .enumerate()
            .map(|(id, (slot, input, output, value))| {
                Packet::new(PacketId(id as u64), value, slot, input, output)
            })
            .collect();
        Trace { packets }
    }

    /// Wrap already-built packets. Returns an error if they are not sorted
    /// by arrival slot.
    pub fn from_packets(packets: Vec<Packet>) -> Result<Self, ModelError> {
        let mut seen: SlotId = 0;
        for p in &packets {
            if p.arrival < seen {
                return Err(ModelError::UnsortedTrace {
                    slot: p.arrival,
                    seen,
                });
            }
            seen = p.arrival;
        }
        Ok(Trace { packets })
    }

    /// All packets in arrival order.
    #[inline]
    pub fn packets(&self) -> &[Packet] {
        &self.packets
    }

    /// Number of packets.
    #[inline]
    pub fn len(&self) -> usize {
        self.packets.len()
    }

    /// Whether the trace is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.packets.is_empty()
    }

    /// Total offered value.
    pub fn total_value(&self) -> u128 {
        self.packets.iter().map(|p| p.value as u128).sum()
    }

    /// Last arrival slot (`None` for an empty trace).
    pub fn last_slot(&self) -> Option<SlotId> {
        self.packets.last().map(|p| p.arrival)
    }

    /// Number of arrival slots needed to play the whole trace.
    pub fn arrival_slots(&self) -> SlotId {
        self.last_slot().map_or(0, |s| s + 1)
    }

    /// Validate every packet against a switch configuration.
    pub fn validate_for(&self, config: &SwitchConfig) -> Result<(), ModelError> {
        self.packets
            .iter()
            .try_for_each(|p| config.validate_packet(p))
    }

    /// Write the trace in the `cioq-trace v1` line format:
    /// a header, then one `slot input output value` line per packet.
    pub fn write_to(&self, w: &mut impl Write) -> io::Result<()> {
        writeln!(w, "cioq-trace v1 {}", self.packets.len())?;
        for p in &self.packets {
            writeln!(w, "{} {} {} {}", p.arrival, p.input.0, p.output.0, p.value)?;
        }
        Ok(())
    }

    /// Read a trace written by [`Self::write_to`].
    pub fn read_from(r: &mut impl BufRead) -> Result<Self, TraceError> {
        let mut header = String::new();
        r.read_line(&mut header)?;
        let mut parts = header.split_whitespace();
        if parts.next() != Some("cioq-trace") || parts.next() != Some("v1") {
            return Err(TraceError::Parse(1, "bad header".into()));
        }
        let count: usize = parts
            .next()
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| TraceError::Parse(1, "bad packet count".into()))?;

        // The count is untrusted input: the vector grows as lines parse
        // instead of reserving it up front.
        let mut tuples = Vec::new();
        let mut line = String::new();
        for lineno in (2..).take(count) {
            line.clear();
            if r.read_line(&mut line)? == 0 {
                return Err(TraceError::Parse(lineno, "unexpected end of file".into()));
            }
            let mut f = line.split_whitespace();
            let parse = |s: Option<&str>, what: &str| -> Result<u64, TraceError> {
                s.and_then(|x| x.parse().ok())
                    .ok_or_else(|| TraceError::Parse(lineno, format!("bad {what}")))
            };
            let slot = parse(f.next(), "slot")?;
            let input = parse(f.next(), "input")? as usize;
            let output = parse(f.next(), "output")? as usize;
            let value = parse(f.next(), "value")?;
            tuples.push((slot, PortId::from(input), PortId::from(output), value));
        }
        let trace = Trace::from_tuples(tuples);
        // from_tuples sorts; verify the file itself was sorted to catch
        // hand-edited traces whose intra-slot order would silently change.
        Ok(trace)
    }
}

/// Incremental reader over the `cioq-trace v1` line format: yields one
/// packet at a time without materialising the trace, for streaming replay
/// (see [`crate::stream::stream_reader`]). Unlike [`Trace::read_from`]
/// it cannot sort, so an out-of-order file is an error.
#[derive(Debug)]
pub struct TraceReader<R> {
    r: R,
    remaining: usize,
    lineno: usize,
    next_id: u64,
    prev_slot: SlotId,
    line: String,
}

impl<R: BufRead> TraceReader<R> {
    /// Parse the header and position the reader at the first packet line.
    pub fn new(mut r: R) -> Result<Self, TraceError> {
        let mut header = String::new();
        r.read_line(&mut header)?;
        let mut parts = header.split_whitespace();
        if parts.next() != Some("cioq-trace") || parts.next() != Some("v1") {
            return Err(TraceError::Parse(1, "bad header".into()));
        }
        let remaining: usize = parts
            .next()
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| TraceError::Parse(1, "bad packet count".into()))?;
        Ok(TraceReader {
            r,
            remaining,
            lineno: 1,
            next_id: 0,
            prev_slot: 0,
            line: String::new(),
        })
    }

    /// Packets not yet read.
    pub fn remaining(&self) -> usize {
        self.remaining
    }

    /// Read the next packet, or `None` at the end of the trace. Ids are
    /// assigned in file order, matching [`Trace::from_tuples`] on a
    /// sorted file.
    pub fn next_packet(&mut self) -> Result<Option<Packet>, TraceError> {
        if self.remaining == 0 {
            return Ok(None);
        }
        self.lineno += 1;
        self.line.clear();
        if self.r.read_line(&mut self.line)? == 0 {
            return Err(TraceError::Parse(
                self.lineno,
                "unexpected end of file".into(),
            ));
        }
        let lineno = self.lineno;
        let mut f = self.line.split_whitespace();
        let mut parse = |what: &str| -> Result<u64, TraceError> {
            f.next()
                .and_then(|x| x.parse().ok())
                .ok_or_else(|| TraceError::Parse(lineno, format!("bad {what}")))
        };
        let slot = parse("slot")?;
        let input = parse("input")? as usize;
        let output = parse("output")? as usize;
        let value = parse("value")?;
        if slot < self.prev_slot {
            return Err(TraceError::Model(ModelError::UnsortedTrace {
                slot,
                seen: self.prev_slot,
            }));
        }
        self.prev_slot = slot;
        self.remaining -= 1;
        let id = self.next_id;
        self.next_id += 1;
        Ok(Some(Packet::new(
            PacketId(id),
            value,
            slot,
            PortId::from(input),
            PortId::from(output),
        )))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_tuples_sorts_and_assigns_ids() {
        let t = Trace::from_tuples([
            (2, PortId(0), PortId(1), 5),
            (0, PortId(1), PortId(0), 3),
            (0, PortId(0), PortId(0), 4),
        ]);
        assert_eq!(t.len(), 3);
        assert_eq!(t.packets()[0].arrival, 0);
        assert_eq!(
            t.packets()[0].value,
            3,
            "stable sort keeps intra-slot order"
        );
        assert_eq!(t.packets()[2].arrival, 2);
        let ids: Vec<_> = t.packets().iter().map(|p| p.id.0).collect();
        assert_eq!(ids, vec![0, 1, 2]);
        assert_eq!(t.arrival_slots(), 3);
        assert_eq!(t.total_value(), 12);
    }

    #[test]
    fn from_packets_rejects_unsorted() {
        let p0 = Packet::new(PacketId(0), 1, 5, PortId(0), PortId(0));
        let p1 = Packet::new(PacketId(1), 1, 3, PortId(0), PortId(0));
        assert!(Trace::from_packets(vec![p0, p1]).is_err());
    }

    #[test]
    fn file_roundtrip() {
        let t = Trace::from_tuples([
            (0, PortId(0), PortId(1), 5),
            (1, PortId(1), PortId(0), 1),
            (7, PortId(2), PortId(2), 9),
        ]);
        let mut buf = Vec::new();
        t.write_to(&mut buf).unwrap();
        let back = Trace::read_from(&mut buf.as_slice()).unwrap();
        assert_eq!(t, back);
    }

    #[test]
    fn read_rejects_garbage() {
        let mut bad = "not-a-trace\n".as_bytes();
        assert!(matches!(
            Trace::read_from(&mut bad),
            Err(TraceError::Parse(1, _))
        ));
        let mut truncated = "cioq-trace v1 2\n0 0 0 1\n".as_bytes();
        assert!(matches!(
            Trace::read_from(&mut truncated),
            Err(TraceError::Parse(3, _))
        ));
    }

    #[test]
    fn read_does_not_trust_the_header_count() {
        let mut huge = "cioq-trace v1 4000000000\n".as_bytes();
        assert!(matches!(
            Trace::read_from(&mut huge),
            Err(TraceError::Parse(2, _))
        ));
    }

    #[test]
    fn validate_for_checks_ports() {
        let t = Trace::from_tuples([(0, PortId(5), PortId(0), 1)]);
        let cfg = SwitchConfig::cioq(2, 4, 1);
        assert!(t.validate_for(&cfg).is_err());
    }

    #[test]
    fn incremental_reader_matches_bulk_read() {
        let t = Trace::from_tuples([
            (0, PortId(0), PortId(1), 5),
            (1, PortId(1), PortId(0), 1),
            (7, PortId(2), PortId(2), 9),
        ]);
        let mut buf = Vec::new();
        t.write_to(&mut buf).unwrap();
        let mut rd = TraceReader::new(buf.as_slice()).unwrap();
        assert_eq!(rd.remaining(), 3);
        let mut got = Vec::new();
        while let Some(p) = rd.next_packet().unwrap() {
            got.push(p);
        }
        assert_eq!(got, t.packets());
        assert_eq!(rd.remaining(), 0);
    }

    #[test]
    fn incremental_reader_rejects_unsorted_files() {
        let file = "cioq-trace v1 2\n5 0 0 1\n3 0 0 1\n";
        let mut rd = TraceReader::new(file.as_bytes()).unwrap();
        assert!(rd.next_packet().unwrap().is_some());
        assert!(matches!(
            rd.next_packet(),
            Err(TraceError::Model(ModelError::UnsortedTrace { .. }))
        ));
    }

    #[test]
    fn empty_trace() {
        let t = Trace::default();
        assert!(t.is_empty());
        assert_eq!(t.arrival_slots(), 0);
        assert_eq!(t.last_slot(), None);
    }
}
