//! `bench_e2e`: one end-to-end benchmark of the VEAL system with a
//! per-layer breakdown. See `README.md` next to this package for the
//! workloads, the metrics and their bounds, and how to read the traces.
//!
//! ```text
//! bench_e2e --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--out FILE]
//! bench_e2e --all [--seed N] [--seconds S] [--traced] [--runs N] [--smoke] [--out FILE]
//! bench_e2e --compare A.json B.json
//! ```

mod cold;
mod exec;
mod gen;
mod json;
mod layers;
mod run;
mod spec;
mod stats;
mod trace;
mod wire;

use json::Json;
use run::{Opts, Run};
use spec::{spec, Better};
use std::path::{Path, PathBuf};
use std::process::Command;

/// The seed a bare invocation uses.
const DEFAULT_SEED: u64 = 1;
/// Where results go unless `--out` says otherwise (git-ignored).
const OUT_DIR: &str = "target/bench_e2e";

const USAGE: &str = "usage:
  bench_e2e --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--out FILE]
  bench_e2e --all [--seed N] [--seconds S] [--traced] [--runs N] [--smoke] [--out FILE]
  bench_e2e --compare A.json B.json";

struct Cli {
    workload: Option<String>,
    all: bool,
    compare: Option<(PathBuf, PathBuf)>,
    seed: u64,
    seconds: Option<f64>,
    traced: bool,
    smoke: bool,
    runs: usize,
    out: Option<PathBuf>,
}

fn parse_cli() -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        all: false,
        compare: None,
        seed: DEFAULT_SEED,
        seconds: None,
        traced: false,
        smoke: false,
        runs: 1,
        out: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut value = |name: &str| args.next().ok_or(format!("{name} needs a value"));
        match a.as_str() {
            "--workload" => cli.workload = Some(value("--workload")?),
            "--all" => cli.all = true,
            "--compare" => {
                let a = value("--compare")?;
                let b = value("--compare")?;
                cli.compare = Some((a.into(), b.into()));
            }
            "--seed" => {
                cli.seed = value("--seed")?
                    .parse()
                    .map_err(|_| "--seed expects an unsigned integer")?;
            }
            "--seconds" => {
                let s: f64 = value("--seconds")?
                    .parse()
                    .map_err(|_| "--seconds expects a number")?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must lie in (0, 600]".into());
                }
                cli.seconds = Some(s);
            }
            "--trace" => {
                cli.traced = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace expects 0 or 1".into()),
                };
            }
            "--traced" => cli.traced = true,
            "--smoke" => cli.smoke = true,
            "--runs" => {
                cli.runs = value("--runs")?
                    .parse()
                    .ok()
                    .filter(|&n| n > 0)
                    .ok_or("--runs expects a positive integer")?;
            }
            "--out" => cli.out = Some(value("--out")?.into()),
            "--help" | "-h" => return Err(USAGE.into()),
            other => return Err(format!("unknown argument {other:?}\n{USAGE}")),
        }
    }
    let modes = usize::from(cli.workload.is_some())
        + usize::from(cli.all)
        + usize::from(cli.compare.is_some());
    if modes != 1 {
        return Err(USAGE.into());
    }
    Ok(cli)
}

fn run_workload(name: &str, opts: Opts) -> Result<Run, String> {
    match name {
        "wire-lockstep" => wire::lockstep(opts),
        "wire-open" => wire::open(opts),
        "translate-cold" => cold::translate_cold(opts),
        "exec-steady" => exec::exec_steady(opts),
        other => Err(format!(
            "unknown workload {other:?}; expected one of {}",
            spec().workloads.join(", ")
        )),
    }
}

fn write_file(path: &Path, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

fn unit_of(name: &str) -> &'static str {
    spec().metric(name).map_or("", |m| m.unit.as_str())
}

fn print_run(run: &Run) {
    println!(
        "{} seed {}{}: {} attempted, {} failed, stream {:#018x}",
        run.workload,
        run.opts.seed,
        if run.opts.traced { " (traced)" } else { "" },
        run.attempted,
        run.failed,
        run.stream_fp
    );
    for (name, value, samples) in run.end_to_end() {
        println!(
            "  {name:<16} {value:>14.4} {:<6} n={samples}",
            unit_of(name)
        );
    }
    if run.opts.traced {
        for (name, value) in run.per_layer() {
            println!("  {name:<40} {value:>14.4} {}", unit_of(&name));
        }
        let roots: u64 = run
            .tracer
            .spans()
            .iter()
            .filter(|s| s.parent.is_none())
            .map(trace::Span::dur)
            .sum();
        println!("  self time by span (share of root time):");
        for (name, (count, ns)) in run.tracer.by_name() {
            println!(
                "    {name:<32} {count:>9} spans {:>10.2} ms {:>6.1}%",
                ns as f64 / 1e6,
                100.0 * ns as f64 / roots.max(1) as f64
            );
        }
        for m in spec()
            .per_layer
            .iter()
            .filter(|m| m.name.ends_with(".share_gap_pp"))
        {
            let gap = run.per_layer().get(&m.name).copied().unwrap_or(0.0);
            if gap.abs() > 10.0 {
                println!(
                    "  flag: {} = {gap:+.1} pp (wall share vs CostMeter share)",
                    m.name
                );
            }
        }
    }
    for g in &run.gate_failures {
        println!("  GATE FAILED: {g}");
    }
}

/// `--workload`: one run, reported on the last line of stdout.
fn one(cli: &Cli, name: &str) -> Result<i32, String> {
    let opts = Opts {
        seed: cli.seed,
        seconds: cli.seconds.unwrap_or(if cli.smoke {
            1.0
        } else {
            spec().run_seconds as f64
        }),
        traced: cli.traced,
        smoke: cli.smoke,
    };
    let run = run_workload(name, opts)?;
    print_run(&run);
    if run.opts.traced {
        let path = Path::new(OUT_DIR).join(format!("spans-{name}.jsonl"));
        write_file(&path, &run.tracer.to_jsonl())?;
        println!("spans: {}", path.display());
    }
    if let Some(out) = &cli.out {
        write_file(out, &run.detail_json())?;
    }
    println!("{}", run.result_line()?);
    Ok(if run.correct() { 0 } else { 1 })
}

/// Values of one end-to-end metric over a workload's traced or untraced
/// runs.
fn values(runs: &[Json], workload: &str, metric: &str, traced: bool) -> Vec<f64> {
    runs.iter()
        .filter(|r| r.get("workload").and_then(Json::as_str) == Some(workload))
        .filter(|r| r.get("traced").and_then(Json::as_bool) == Some(traced))
        .filter_map(|r| {
            r.get("end_to_end")
                .and_then(|e| e.get(metric))
                .and_then(|m| m.get("value"))
                .and_then(Json::as_f64)
        })
        .collect()
}

/// `--all`: every workload in its own process, `--runs` times, with
/// consecutive seeds; results collected into one file.
fn all(cli: &Cli) -> Result<i32, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this binary: {e}"))?;
    let out = cli
        .out
        .clone()
        .unwrap_or_else(|| Path::new(OUT_DIR).join("results.json"));
    let dir = out
        .parent()
        .filter(|d| !d.as_os_str().is_empty())
        .unwrap_or(Path::new("."))
        .join("runs");
    let seconds = cli.seconds.unwrap_or(if cli.smoke {
        1.0
    } else {
        spec().run_seconds as f64
    });
    let mut details = Vec::new();
    let mut raw = Vec::new();
    let mut failures = Vec::new();
    for r in 0..cli.runs {
        let seed = cli.seed + r as u64;
        for w in &spec().workloads {
            for traced in [false, true].into_iter().filter(|&t| !t || cli.traced) {
                let file = dir.join(format!("{w}-{seed}-{}.json", u8::from(traced)));
                let mut cmd = Command::new(&exe);
                cmd.args(["--workload", w, "--seed", &seed.to_string()])
                    .args(["--seconds", &seconds.to_string()])
                    .args(["--trace", if traced { "1" } else { "0" }])
                    .arg("--out")
                    .arg(&file);
                if cli.smoke {
                    cmd.arg("--smoke");
                }
                let status = cmd.status().map_err(|e| format!("running {w}: {e}"))?;
                if !status.success() {
                    failures.push(format!("{w} seed {seed} traced={traced}: {status}"));
                }
                let text = std::fs::read_to_string(&file).unwrap_or_default();
                match json::parse(&text) {
                    Ok(d) => {
                        details.push(d);
                        raw.push(text.trim_end().to_string());
                    }
                    Err(_) => failures.push(format!("{w} seed {seed}: no result file")),
                }
            }
        }
    }

    let mut text = format!(
        "{{\"bench\": \"bench_e2e\", \"seed\": {}, \"seconds\": {seconds}, \"runs\": [\n",
        cli.seed
    );
    text.push_str(&raw.join(",\n"));
    text.push_str("\n]}\n");
    write_file(&out, &text)?;

    println!("\nsummary: median over {} run(s) per workload", cli.runs);
    for w in &spec().workloads {
        println!("{w}");
        for m in &spec().end_to_end {
            let v = values(&details, w, &m.name, false);
            if v.is_empty() {
                println!("  {:<16} not measured", m.name);
                continue;
            }
            let samples = details
                .iter()
                .filter(|d| d.get("workload").and_then(Json::as_str) == Some(w.as_str()))
                .filter(|d| d.get("traced").and_then(Json::as_bool) == Some(false))
                .filter_map(|d| d.get("end_to_end")?.get(&m.name)?.get("samples")?.as_f64())
                .sum::<f64>();
            let med = stats::median(&v);
            print!("  {:<16} {med:>14.4} {:<6} n={samples}", m.name, m.unit);
            let t = values(&details, w, &m.name, true);
            if !t.is_empty() {
                print!(
                    "  tracing overhead {:+.4} {}",
                    stats::median(&t) - med,
                    m.unit
                );
            }
            println!();
        }
    }
    println!("results: {}", out.display());
    for f in &failures {
        println!("FAILED: {f}");
    }
    Ok(if failures.is_empty() { 0 } else { 1 })
}

/// `--compare A B`: one row per (workload, end-to-end metric), labelled by
/// the metric's bound (see [`stats::compare`]).
fn compare(a: &Path, b: &Path) -> Result<i32, String> {
    let load = |p: &Path| -> Result<Vec<Json>, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()))?;
        let root = json::parse(&text).map_err(|e| format!("{}: {e}", p.display()))?;
        Ok(root
            .get("runs")
            .map(|r| r.as_arr().to_vec())
            .unwrap_or_default())
    };
    let (base, cand) = (load(a)?, load(b)?);
    println!(
        "{:<15} {:<16} {:>12} {:>12} {:>9} {:>7} {:>7} {:>6}  verdict",
        "workload", "metric", "A median", "B median", "change", "A iqr", "B iqr", "bound"
    );
    let mut regressed = 0;
    for w in &spec().workloads {
        for m in &spec().end_to_end {
            let (x, y) = (
                values(&base, w, &m.name, false),
                values(&cand, w, &m.name, false),
            );
            if x.is_empty() || y.is_empty() {
                println!("{w:<15} {:<16} missing in one of the files", m.name);
                continue;
            }
            let bound = m.bound.unwrap_or(0.0);
            let c = stats::compare(&x, &y, m.better, bound);
            regressed += usize::from(c.verdict == stats::Verdict::Regressed);
            let sign = if m.better == Better::Lower { 1.0 } else { -1.0 };
            println!(
                "{w:<15} {:<16} {:>12.4} {:>12.4} {:>+8.2}% {:>6.2}% {:>6.2}% {:>5.0}%  {} (n={}/{})",
                m.name,
                c.base_median,
                c.cand_median,
                100.0 * sign * c.worse_by,
                100.0 * c.base_spread,
                100.0 * c.cand_spread,
                100.0 * bound,
                c.verdict.label(),
                x.len(),
                y.len()
            );
        }
    }
    Ok(i32::from(regressed > 0))
}

fn main() {
    let result = parse_cli().and_then(|cli| {
        if let Some((a, b)) = &cli.compare {
            compare(a, b)
        } else if cli.all {
            all(&cli)
        } else {
            let name = cli.workload.clone().expect("one mode was chosen");
            one(&cli, &name)
        }
    });
    match result {
        Ok(code) => std::process::exit(code),
        Err(e) => {
            eprintln!("bench_e2e: {e}");
            std::process::exit(2);
        }
    }
}
