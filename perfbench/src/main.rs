//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints, as the last line of standard output, one
//! JSON object: `correct`, `attempted`, `failed` and `metrics` (the
//! end-to-end metrics, or with `--trace 1` the per-layer ones). The line
//! before it is the run report: environment, sample counts, stream shape
//! and check notes; it is also written to `.bench_out/`, with the spans of
//! a traced run.

#![forbid(unsafe_code)]

use perfbench::bench::{self, Outcome, END_TO_END, PER_LAYER};
use perfbench::service::nproc;
use serde_json::{Map, Value};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .ok_or_else(|| format!("`{flag}` needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("`{flag}` takes a whole number, not `{value}`"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => trace = Some(number()? != 0),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.unwrap_or(false),
    })
}

fn git_rev() -> Value {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or(Value::Null, |s| Value::String(s.trim().to_string()))
}

/// FNV-1a over the sorted source tree the benchmark builds from: a
/// revision stand-in for checkouts that are not git repositories.
fn source_hash() -> String {
    fn walk(path: &Path, files: &mut Vec<PathBuf>) {
        if path.is_file() {
            files.push(path.to_path_buf());
        } else if let Ok(entries) = std::fs::read_dir(path) {
            for e in entries.flatten() {
                walk(&e.path(), files);
            }
        }
    }
    let mut files = Vec::new();
    for root in [
        "Cargo.lock",
        "crates",
        "vendor",
        "perfbench/src",
        "perfbench/Cargo.toml",
    ] {
        walk(Path::new(root), &mut files);
    }
    files.sort();
    let mut h = awb_service::spec::FnvHasher::default();
    for f in files {
        h.write_u64(awb_service::spec::fnv1a(f.to_string_lossy().as_bytes()));
        h.write_u64(awb_service::spec::fnv1a(
            &std::fs::read(&f).unwrap_or_default(),
        ));
    }
    format!("{:016x}", h.finish())
}

fn num(x: f64) -> Value {
    Value::Number(x)
}

fn report(args: &Args, out: &Outcome) -> Value {
    let mut env = Map::new();
    env.insert("nproc".into(), num(nproc() as f64));
    env.insert(
        "rustc".into(),
        Value::String(env!("PERFBENCH_RUSTC").into()),
    );
    env.insert("git_rev".into(), git_rev());
    env.insert("source_hash".into(), Value::String(source_hash()));
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    env.insert("profile".into(), Value::String(profile.into()));
    let mut r = Map::new();
    r.insert("workload".into(), Value::String(args.workload.clone()));
    r.insert("seed".into(), num(args.seed as f64));
    r.insert("seconds".into(), num(args.seconds as f64));
    r.insert("trace".into(), Value::Bool(args.trace));
    r.insert("env".into(), Value::Object(env));
    r.insert("attempted".into(), num(out.attempted as f64));
    r.insert("failed".into(), num(out.failed as f64));
    r.insert(
        "samples".into(),
        Value::Object(
            out.samples
                .iter()
                .map(|(k, v)| ((*k).to_string(), num(*v as f64)))
                .collect(),
        ),
    );
    r.insert("stream_shape".into(), Value::String(out.shape.clone()));
    r.insert(
        "notes".into(),
        Value::Array(out.notes.iter().cloned().map(Value::String).collect()),
    );
    r.insert(
        "all_metrics".into(),
        Value::Object(
            out.metrics
                .iter()
                .map(|(k, v)| ((*k).to_string(), num(*v)))
                .collect(),
        ),
    );
    Value::Object(r)
}

fn result_line(args: &Args, out: &Outcome) -> Result<String, String> {
    let names: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut metrics = Vec::with_capacity(names.len());
    for &(name, unit) in names {
        let value = match out.metrics.get(name) {
            Some(v) if v.is_finite() => *v,
            Some(v) => return Err(format!("metric {name} is not finite ({v})")),
            // A layer this workload does not exercise did no work.
            None if args.trace => 0.0,
            None => return Err(format!("metric {name} was not measured")),
        };
        metrics.push(format!(
            "\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"
        ));
    }
    Ok(format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        out.correct && out.failed == 0,
        out.attempted,
        out.failed,
        metrics.join(",")
    ))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let out = match bench::run(&args.workload, args.seed, args.seconds as f64, args.trace) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {} run failed: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    let line = match result_line(&args, &out) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let report = report(&args, &out).to_string();
    let dir = Path::new(".bench_out");
    let stem = format!(
        "{}-seed{}-trace{}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    let written = std::fs::create_dir_all(dir).and_then(|()| {
        std::fs::write(dir.join(format!("{stem}.json")), format!("{report}\n"))?;
        match &out.spans {
            Some(spans) => spans.write_jsonl(&dir.join(format!("{stem}-spans.jsonl"))),
            None => Ok(()),
        }
    });
    if let Err(e) = written {
        eprintln!("perfbench: cannot write .bench_out: {e}");
        return ExitCode::FAILURE;
    }
    println!("{report}");
    println!("{line}");
    ExitCode::SUCCESS
}
