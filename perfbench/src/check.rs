//! Output checks. Every operation's output is parsed and compared with an
//! in-process reference computed through the library; an operation whose
//! output is missing, malformed or different fails, and failures are
//! counted, never skipped.

use dts_core::hash::{stable_digest, Digest128};
use serde::Value;
use std::collections::BTreeMap;

/// The fields of `dts run` output the check compares.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunSummary {
    pub heuristic: String,
    pub makespan_us: u64,
    pub omim_us: u64,
    /// The printed `ratio to optimal`, four decimals.
    pub ratio: String,
}

impl RunSummary {
    /// makespan / OMIM at full precision.
    pub fn ratio_value(&self) -> f64 {
        self.makespan_us as f64 / self.omim_us as f64
    }
}

fn labelled<'a>(text: &'a str, label: &str) -> Option<&'a str> {
    text.lines()
        .find_map(|line| line.strip_prefix(label))
        .map(str::trim)
}

fn micros(field: Option<&str>) -> Option<u64> {
    field?.strip_suffix(" us")?.parse().ok()
}

/// Parses the output of `dts run`.
pub fn parse_run(stdout: &str) -> Option<RunSummary> {
    Some(RunSummary {
        heuristic: labelled(stdout, "heuristic ")?.to_string(),
        makespan_us: micros(labelled(stdout, "makespan "))?,
        omim_us: micros(labelled(stdout, "OMIM "))?,
        ratio: labelled(stdout, "ratio to optimal ")?.to_string(),
    })
}

/// Checks `dts run` output against the reference; returns makespan / OMIM.
pub fn check_run(stdout: &str, expected: &RunSummary) -> Result<f64, String> {
    let got = parse_run(stdout).ok_or("unparsable dts run output")?;
    if got != *expected {
        return Err(format!("dts run printed {got:?}, reference {expected:?}"));
    }
    Ok(got.ratio_value())
}

/// Parses `dts sweep` CSV into (makespan_us, omim_us) per row.
pub fn parse_sweep_csv(csv: &str) -> Option<Vec<(u64, u64)>> {
    let mut lines = csv.lines();
    if lines.next()? != "kernel,rank,factor,capacity_bytes,heuristic,makespan_us,omim_us,ratio" {
        return None;
    }
    lines
        .map(|line| {
            let cols: Vec<&str> = line.split(',').collect();
            if cols.len() != 8 {
                return None;
            }
            Some((cols[5].parse().ok()?, cols[6].parse().ok()?))
        })
        .collect()
}

/// Checks `dts sweep` CSV against the reference CSV byte for byte; returns
/// the mean makespan / OMIM over its rows.
pub fn check_sweep(stdout: &str, expected: &str) -> Result<f64, String> {
    let rows = parse_sweep_csv(stdout).ok_or("unparsable dts sweep CSV")?;
    if stdout != expected || rows.is_empty() {
        return Err("dts sweep CSV differs from the reference".to_string());
    }
    let ratios: Vec<f64> = rows.iter().map(|&(m, o)| m as f64 / o as f64).collect();
    Ok(crate::stats::mean(&ratios))
}

/// A daemon reply, reduced to what the check compares.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reply {
    pub cached: bool,
    pub makespan_us: u64,
    pub n_tasks: u64,
    /// Digest of the reply bytes with the `cached` flag cleared: equal for
    /// a cold reply and every cache hit of the same key.
    pub body: Digest128,
}

/// Parses one daemon reply; an error reply becomes `Err` with its code.
pub fn parse_reply(text: &str, value: &Value) -> Result<Reply, String> {
    let field = |v: &Value, name: &str| v.field(name).ok().cloned();
    match field(value, "status") {
        Some(Value::Str(s)) if s == "ok" => {}
        _ => {
            let code = match field(value, "code") {
                Some(Value::Str(code)) => code,
                _ => "malformed".to_string(),
            };
            return Err(format!("daemon replied with error [{code}]"));
        }
    }
    let cached = match field(value, "cached") {
        Some(Value::Bool(b)) => b,
        _ => return Err("reply without a boolean 'cached'".to_string()),
    };
    let result = field(value, "result").ok_or("reply without 'result'")?;
    let uint = |name: &str| match field(&result, name) {
        Some(Value::UInt(n)) => Ok(n),
        _ => Err(format!("reply result without integer '{name}'")),
    };
    let cold = text.replacen("\"cached\":true", "\"cached\":false", 1);
    Ok(Reply {
        cached,
        makespan_us: uint("makespan_us")?,
        n_tasks: uint("n_tasks")?,
        body: stable_digest(cold.as_bytes()),
    })
}

/// Checks the replies of a request sequence. `replies` holds, in sequence
/// order, each request's key and parsed reply; `reference` gives a key's
/// in-process makespan, task count and OMIM. Every reply must carry the
/// reference makespan and task count, and every reply of a key, cache hits
/// included, must be byte-identical to the cold reply apart from the
/// `cached` flag. Returns per request the makespan / OMIM, or why it failed.
pub fn check_replies<K: Ord + Copy>(
    replies: &[(K, Result<Reply, String>)],
    reference: impl Fn(K) -> (u64, u64, u64),
) -> Vec<Result<f64, String>> {
    let mut cold: BTreeMap<K, Digest128> = BTreeMap::new();
    for (key, reply) in replies {
        if let Ok(r) = reply {
            if !r.cached {
                cold.entry(*key).or_insert(r.body);
            }
        }
    }
    replies
        .iter()
        .map(|(key, reply)| {
            let r = reply.as_ref().map_err(Clone::clone)?;
            let (makespan, n_tasks, omim) = reference(*key);
            if r.makespan_us != makespan || r.n_tasks != n_tasks {
                return Err(format!(
                    "reply makespan {} over {} tasks, reference {makespan} over {n_tasks}",
                    r.makespan_us, r.n_tasks
                ));
            }
            match cold.get(key) {
                Some(body) if *body == r.body => Ok(makespan as f64 / omim as f64),
                Some(_) => Err("reply bytes differ from the cold reply of its key".to_string()),
                None => Err("cache hit for a key that was never solved".to_string()),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const RUN: &str = "heuristic          MAMR\n\
                       model              explicit\n\
                       cost model         analytic\n\
                       capacity           7.50 KiB (1.5x mc)\n\
                       makespan           7499198 us\n\
                       OMIM               4999246 us\n\
                       ratio to optimal   1.5001\n\
                       overlap fraction   0.0 %\n";

    fn expected_run() -> RunSummary {
        RunSummary {
            heuristic: "MAMR".to_string(),
            makespan_us: 7_499_198,
            omim_us: 4_999_246,
            ratio: "1.5001".to_string(),
        }
    }

    #[test]
    fn run_output_parses_and_matches() {
        assert_eq!(parse_run(RUN), Some(expected_run()));
        let ratio = check_run(RUN, &expected_run()).unwrap();
        assert!((ratio - 7_499_198.0 / 4_999_246.0).abs() < 1e-12);
        assert_eq!(parse_run("heuristic MAMR\n"), None);
    }

    #[test]
    fn tampered_run_output_fails() {
        let tampered = RUN.replace("7499198", "7499197");
        assert!(check_run(&tampered, &expected_run()).is_err());
        assert!(check_run("", &expected_run()).is_err());
    }

    const CSV: &str = "kernel,rank,factor,capacity_bytes,heuristic,makespan_us,omim_us,ratio\n\
                       HF,0,1,1024,OS,150,100,1.500000\n\
                       HF,0,1,1024,GG,100,100,1.000000\n";

    #[test]
    fn sweep_csv_parses_and_matches() {
        assert_eq!(parse_sweep_csv(CSV), Some(vec![(150, 100), (100, 100)]));
        assert_eq!(check_sweep(CSV, CSV), Ok(1.25));
        assert_eq!(parse_sweep_csv("HF,0\n"), None);
        assert_eq!(parse_sweep_csv(&CSV.replace(",GG,", ",GG,x,")), None);
    }

    #[test]
    fn tampered_sweep_csv_fails() {
        let tampered = CSV.replace("OS,150", "OS,151");
        assert!(check_sweep(&tampered, CSV).is_err());
    }

    fn reply(cached: bool, makespan: u64, digest: &str) -> (String, Value) {
        let text = format!(
            "{{\"status\":\"ok\",\"cached\":{cached},\"digest\":\"{digest}\",\
             \"result\":{{\"n_tasks\":3,\"makespan_us\":{makespan}}}}}"
        );
        let value = serde_json::from_str(&text).unwrap();
        (text, value)
    }

    #[test]
    fn replies_parse_and_error_replies_fail() {
        let (text, value) = reply(true, 40, "ab");
        let r = parse_reply(&text, &value).unwrap();
        assert!(r.cached);
        assert_eq!((r.makespan_us, r.n_tasks), (40, 3));
        let (cold_text, cold_value) = reply(false, 40, "ab");
        assert_eq!(parse_reply(&cold_text, &cold_value).unwrap().body, r.body);
        let error = r#"{"status":"error","code":"queue-full","message":"retry"}"#;
        let err = parse_reply(error, &serde_json::from_str(error).unwrap()).unwrap_err();
        assert!(err.contains("queue-full"));
    }

    #[test]
    fn hits_must_match_the_cold_reply_and_the_reference() {
        let parsed = |cached, makespan, digest| {
            let (text, value) = reply(cached, makespan, digest);
            parse_reply(&text, &value)
        };
        let replies = vec![
            (1u8, parsed(false, 40, "ab")),
            (2u8, parsed(false, 60, "cd")),
            (1u8, parsed(true, 40, "ab")),
            // Tampered: a hit whose bytes differ from its cold reply.
            (2u8, parsed(true, 60, "ce")),
            // Tampered: a makespan that differs from the reference.
            (2u8, parsed(false, 61, "cd")),
            // A hit for a key with no cold reply.
            (3u8, parsed(true, 10, "ef")),
            (4u8, Err("transport".to_string())),
        ];
        let reference = |k: u8| match k {
            1 => (40, 3, 20),
            2 => (60, 3, 30),
            _ => (10, 3, 10),
        };
        let results = check_replies(&replies, reference);
        assert_eq!(results[0], Ok(2.0));
        assert_eq!(results[1], Ok(2.0));
        assert_eq!(results[2], Ok(2.0));
        assert!(results[3..].iter().all(Result::is_err));
    }
}
