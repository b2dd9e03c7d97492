//! The counter gate: the deterministic engine counters of a few fast
//! rows, held to the values committed in `BENCH_counters.json`.
//!
//! Wall time on a shared host swings by ±15% between identical runs, so
//! it cannot tell a change that makes the engines do more work from
//! noise. The `--jobs 1` work counters can: each gated row re-runs as its
//! own `specmatcher check … --jobs 1 --trace-out <tmp>` process (so the
//! process-wide automaton memo starts empty and `gba.cache_misses` counts
//! only that row), and a work counter that grows more than the committed
//! tolerance past its value fails the test. A counter that shrinks is
//! printed as a note. A change that trades counters on purpose
//! regenerates the file with `scripts/bench_counters.py` and says so.

use specmatcher::trace;
use std::collections::BTreeMap;
use std::path::Path;
use std::process::Command;

/// A parsed JSON value: just enough of JSON for `BENCH_counters.json`.
#[derive(Debug)]
enum Json {
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(BTreeMap<String, Json>),
    Other,
}

impl Json {
    fn get(&self, key: &str) -> &Json {
        match self {
            Json::Obj(fields) => fields.get(key).unwrap_or(&Json::Other),
            _ => &Json::Other,
        }
    }

    fn num(&self) -> f64 {
        match self {
            Json::Num(n) => *n,
            other => panic!("expected a number, found {other:?}"),
        }
    }

    fn str(&self) -> &str {
        match self {
            Json::Str(s) => s,
            other => panic!("expected a string, found {other:?}"),
        }
    }
}

/// Parses one JSON value from the front of `s`, returning it and the rest.
fn parse(s: &str) -> (Json, &str) {
    let s = s.trim_start();
    let rest = |n: usize| s[n..].trim_start();
    match s.as_bytes()[0] {
        b'{' | b'[' => {
            let (object, close) = if s.starts_with('{') {
                (true, '}')
            } else {
                (false, ']')
            };
            let mut fields = BTreeMap::new();
            let mut items = Vec::new();
            let mut s = rest(1);
            while !s.starts_with(close) {
                if object {
                    let (key, after) = parse(s);
                    let after = after.strip_prefix(':').expect("':' after a key");
                    let (value, after) = parse(after);
                    fields.insert(key.str().to_owned(), value);
                    s = after;
                } else {
                    let (value, after) = parse(s);
                    items.push(value);
                    s = after;
                }
                s = s.strip_prefix(',').unwrap_or(s).trim_start();
            }
            let value = if object {
                Json::Obj(fields)
            } else {
                Json::Arr(items)
            };
            (value, s[1..].trim_start())
        }
        b'"' => {
            // Escapes are skipped over, not decoded: no compared string
            // holds one.
            let mut end = 1;
            while s.as_bytes()[end] != b'"' {
                end += if s.as_bytes()[end] == b'\\' { 2 } else { 1 };
            }
            (Json::Str(s[1..end].to_owned()), rest(end + 1))
        }
        _ => {
            let end = s.find([',', '}', ']', '\n']).unwrap_or(s.len());
            let token = s[..end].trim();
            let value = token.parse().map_or(Json::Other, Json::Num);
            (value, rest(end))
        }
    }
}

/// The counters and gauges of one `specmatcher check <args> --jobs 1` run,
/// traced to a file in `dir`.
fn measure(args: &str, dir: &Path) -> BTreeMap<String, u64> {
    let path = dir.join("trace.jsonl");
    std::fs::remove_file(&path).ok();
    let out = Command::new(env!("CARGO_BIN_EXE_specmatcher"))
        .arg("check")
        .args(args.split_whitespace())
        .args(["--jobs", "1", "--trace-out"])
        .arg(&path)
        .output()
        .expect("binary runs");
    assert!(
        matches!(out.status.code(), Some(0 | 1)),
        "check {args}: {:?}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(&path).expect("trace written");
    let data = trace::parse_jsonl(&text).expect("trace parses");
    data.counters.into_iter().chain(data.gauges).collect()
}

#[test]
fn work_counters_stay_within_the_committed_values() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/BENCH_counters.json");
    let text = std::fs::read_to_string(path).expect("BENCH_counters.json is committed");
    let (doc, rest) = parse(&text);
    assert!(rest.is_empty(), "trailing text in BENCH_counters.json");
    assert_eq!(doc.get("schema").str(), "specmatcher-counters/1");
    let tolerance = doc.get("tolerance").num();
    let Json::Arr(rows) = doc.get("gated") else {
        panic!("no gated rows")
    };
    assert!(!rows.is_empty(), "no gated rows");

    let dir = std::env::temp_dir().join(format!("counter-gate-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let mut grown = Vec::new();
    for row in rows {
        let name = row.get("row").str();
        let measured = measure(row.get("args").str(), &dir);
        let Json::Obj(committed) = row.get("counters") else {
            panic!("{name}: no counters")
        };
        for (counter, value) in committed {
            let (was, now) = (value.num(), measured.get(counter).copied().unwrap_or(0));
            if now as f64 > was * (1.0 + tolerance) {
                grown.push(format!("{name}: {counter} grew from {was} to {now}"));
            } else if (now as f64) < was {
                println!("note: {name}: {counter} shrank from {was} to {now}");
            }
        }
    }
    std::fs::remove_dir_all(&dir).ok();
    assert!(
        grown.is_empty(),
        "work counters grew more than {:.0}% past BENCH_counters.json:\n{}",
        tolerance * 100.0,
        grown.join("\n")
    );
}
