//! Result plumbing: order statistics, report digests, golden values, the
//! run manifest and the one-line JSON result.

use cioq_sim::RunReport;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Median of `v` (sorts in place); 0 for an empty slice.
pub fn median(v: &mut [f64]) -> f64 {
    quantile(v, 0.5)
}

/// Nearest-rank quantile `q` of `v` (sorts in place); 0 when empty.
pub fn quantile(v: &mut [f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// The tail quantile `n` independent samples support: 0.99 when at least
/// ten samples lie beyond it, otherwise the highest quantile that still
/// leaves ten beyond it, but never below the median.
pub fn tail_quantile(n: usize) -> f64 {
    if n >= 1000 {
        0.99
    } else {
        (1.0 - 10.0 / n.max(1) as f64).max(0.5)
    }
}

/// 64-bit FNV-1a.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Canonical text of the report fields the digest covers: slots, arrivals,
/// admissions, transmissions, benefit and the loss breakdown.
pub fn report_canon(r: &RunReport) -> String {
    let l = &r.losses;
    format!(
        "{}|slots={}|arrived={}/{}|accepted={}|transmitted={}|benefit={}|\
         rejected={}/{}|pre_in={}/{}|pre_xbar={}/{}|pre_out={}/{}|dropped={}/{}",
        r.policy,
        r.slots,
        r.arrived,
        r.arrived_value,
        r.accepted,
        r.transmitted,
        r.benefit.0,
        l.rejected,
        l.rejected_value,
        l.preempted_input,
        l.preempted_input_value,
        l.preempted_crossbar,
        l.preempted_crossbar_value,
        l.preempted_output,
        l.preempted_output_value,
        l.dropped,
        l.dropped_value,
    )
}

/// Digest of a sequence of canonical texts, as 16 hex digits.
pub fn digest<'a>(parts: impl IntoIterator<Item = &'a str>) -> String {
    let mut all = String::new();
    for p in parts {
        all.push_str(p);
        all.push('\n');
    }
    format!("{:016x}", fnv1a(all.as_bytes()))
}

/// Golden digests recorded for `(workload, seed)` pairs.
pub fn golden(workload: &str, seed: u64) -> Option<&'static str> {
    include_str!("../golden.tsv").lines().find_map(|line| {
        let mut f = line.split('\t');
        let (w, s, d) = (f.next()?, f.next()?, f.next()?);
        (w == workload && s.parse() == Ok(seed)).then_some(d)
    })
}

/// Peak resident set (`VmHWM`) of this process in MiB, if `/proc` has it.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// The commit of the checkout the benchmark was built in, read from its
/// `.git` without leaving the checkout; `"unknown"` outside a git checkout.
pub fn commit() -> String {
    let git = concat!(env!("CARGO_MANIFEST_DIR"), "/../.git");
    let read = |p: &str| std::fs::read_to_string(format!("{git}/{p}")).ok();
    let Some(head) = read("HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(id) = read(reference) {
        return id.trim().to_string();
    }
    read("packed-refs")
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                let (id, name) = l.split_once(' ')?;
                (name == reference).then(|| id.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

/// A JSON value with canonical serialisation (object keys sorted).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer.
    Int(i128),
    /// A finite float (non-finite values serialise as `null`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; `BTreeMap` keeps the keys sorted.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Build an object from `(key, value)` pairs.
    pub fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// A string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Serialise canonically: sorted keys, no whitespace.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(i) => write!(out, "{i}").expect("write to String"),
            Json::Num(x) if x.is_finite() => write!(out, "{x:?}").expect("write to String"),
            Json::Num(_) => out.push_str("null"),
            Json::Str(s) => {
                out.push('"');
                for c in s.chars() {
                    match c {
                        '"' => out.push_str("\\\""),
                        '\\' => out.push_str("\\\\"),
                        c if (c as u32) < 0x20 => {
                            write!(out, "\\u{:04x}", c as u32).expect("write to String")
                        }
                        c => out.push(c),
                    }
                }
                out.push('"');
            }
            Json::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.write(out);
                }
                out.push(']');
            }
            Json::Obj(map) => {
                out.push('{');
                for (i, (k, v)) in map.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    Json::Str(k.clone()).write(out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_are_nearest_rank() {
        let mut v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&mut v, 0.99), 99.0);
        assert_eq!(median(&mut v), 50.0);
        assert_eq!(tail_quantile(2000), 0.99);
        assert_eq!(tail_quantile(500), 0.98);
        assert_eq!(tail_quantile(15), 0.5);
    }

    #[test]
    fn json_is_canonical() {
        let j = Json::obj([
            ("b", Json::Int(1)),
            ("a", Json::Arr(vec![Json::Num(0.5), Json::str("x\"y")])),
        ]);
        assert_eq!(j.render(), r#"{"a":[0.5,"x\"y"],"b":1}"#);
    }
}
