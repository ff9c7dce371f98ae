//! Workspace-seam smoke test: drives the full generate → solve → verify
//! pipeline through `kecss_cli::run` on a tiny instance, checks that a
//! `--trace` sink leaves `solve`'s output unchanged, and runs the `kecss`
//! binary to verify a k past `u32`, to generate a Harary shape that cannot
//! exist, and as a worker heartbeating a server that refuses its beats.

use kecss_server::client::Client;
use std::io::{BufRead, BufReader, Read};
use std::path::PathBuf;
use std::process::{Child, ChildStdout, Command, Stdio};

fn argv(args: &[&str]) -> Vec<String> {
    args.iter().map(|s| s.to_string()).collect()
}

fn run(args: &[&str]) -> Result<String, kecss_cli::CliError> {
    let mut out = Vec::new();
    kecss_cli::run(&argv(args), &mut out)?;
    Ok(String::from_utf8(out).expect("cli output is utf-8"))
}

struct TempFile(PathBuf);

impl TempFile {
    fn new(name: &str) -> Self {
        let path =
            std::env::temp_dir().join(format!("kecss-cli-smoke-{}-{name}", std::process::id()));
        TempFile(path)
    }
    fn as_str(&self) -> &str {
        self.0.to_str().expect("temp path is utf-8")
    }
}

impl Drop for TempFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

#[test]
fn generate_solve_verify_pipeline() {
    let instance = TempFile::new("instance.graph");
    let solution = TempFile::new("solution.edges");

    let out = run(&[
        "generate",
        "--family",
        "random",
        "--n",
        "16",
        "--k",
        "2",
        "--max-weight",
        "20",
        "--seed",
        "5",
        "--output",
        instance.as_str(),
    ])
    .expect("generate succeeds");
    assert!(
        out.contains("16"),
        "generate reports the instance size: {out}"
    );

    let out = run(&[
        "solve",
        "--input",
        instance.as_str(),
        "--algorithm",
        "2ecss",
        "--seed",
        "5",
        "--output",
        solution.as_str(),
    ])
    .expect("solve succeeds");
    assert!(out.contains("weight"), "solve reports a weight: {out}");

    let out = run(&[
        "verify",
        "--input",
        instance.as_str(),
        "--solution",
        solution.as_str(),
        "--k",
        "2",
    ])
    .expect("verify succeeds");
    assert!(
        out.to_lowercase().contains("ok") || out.contains("2-edge-connected"),
        "verify reports success: {out}"
    );
}

#[test]
fn verify_refuses_a_k_past_u32() {
    // 2^32 + 2 truncated to 32 bits is 2, which the triangle meets.
    let instance = TempFile::new("triangle.graph");
    let solution = TempFile::new("triangle.edges");
    std::fs::write(instance.as_str(), "3\n0 1 1\n1 2 1\n2 0 1\n").unwrap();
    std::fs::write(solution.as_str(), "0 1 1\n1 2 1\n2 0 1\n").unwrap();
    let verify = |k: &str| {
        Command::new(env!("CARGO_BIN_EXE_kecss"))
            .args(["verify", "--input", instance.as_str()])
            .args(["--solution", solution.as_str(), "--k", k])
            .output()
            .expect("kecss runs")
    };
    let past = verify("4294967298");
    let stdout = String::from_utf8_lossy(&past.stdout);
    assert_eq!(past.status.code(), Some(1), "{stdout}");
    assert!(stdout.contains("NOT 4294967298-edge-connected"), "{stdout}");
    assert!(verify("2").status.success());
}

#[test]
fn generate_refuses_a_harary_shape_with_a_usage_error() {
    // H(3, 9) does not exist: an odd k above 1 needs an even n.
    let instance = TempFile::new("harary9.graph");
    let out = Command::new(env!("CARGO_BIN_EXE_kecss"))
        .args(["generate", "--family", "harary", "--n", "9", "--k", "3"])
        .args(["--output", instance.as_str()])
        .output()
        .expect("kecss runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("usage error"), "{stderr}");
    assert!(stderr.contains("needs an even n"), "{stderr}");
}

#[test]
fn a_trace_sink_never_changes_what_solve_writes() {
    let instance = TempFile::new("harary16.graph");
    let traced = TempFile::new("traced.edges");
    let untraced = TempFile::new("untraced.edges");
    let trace = TempFile::new("solve.trace.jsonl");
    run(&[
        "generate",
        "--family",
        "harary",
        "--n",
        "16",
        "--k",
        "5",
        "--output",
        instance.as_str(),
    ])
    .expect("generate succeeds");
    // k = 5 covers cuts of size 4, which `auto` sends to the label
    // enumerator.
    let solve = |output: &TempFile, trace: Option<&TempFile>| {
        let mut args = vec![
            "solve",
            "--input",
            instance.as_str(),
            "--algorithm",
            "kecss",
        ];
        args.extend(["--k", "5", "--seed", "3", "--output", output.as_str()]);
        args.extend(trace.iter().flat_map(|t| ["--trace", t.as_str()]));
        run(&args)
            .expect("solve succeeds")
            .replace(output.as_str(), "<output>")
    };
    assert_eq!(solve(&traced, Some(&trace)), solve(&untraced, None));
    let read = |file: &TempFile| std::fs::read(&file.0).expect("solve wrote it");
    assert_eq!(read(&traced), read(&untraced));
    let spans = String::from_utf8(read(&trace)).expect("the trace is utf-8");
    assert!(
        spans.contains(r#""path":"solve/augment/enumerate""#),
        "no enumerate span in the trace:\n{spans}"
    );
}

#[test]
fn solve_rejects_missing_file() {
    let err = run(&[
        "solve",
        "--input",
        "/nonexistent/kecss.graph",
        "--algorithm",
        "2ecss",
    ])
    .expect_err("missing input must fail");
    assert!(matches!(err, kecss_cli::CliError::Io(_)));
}

#[test]
fn greedy_refuses_bad_input_with_a_solver_error() {
    // A 6-cycle is exactly 2-edge-connected.
    let instance = TempFile::new("cycle.graph");
    std::fs::write(
        instance.as_str(),
        "6\n0 1 1\n1 2 1\n2 3 1\n3 4 1\n4 5 1\n5 0 1\n",
    )
    .unwrap();
    for (k, expected) in [
        (
            "3",
            kecss::Error::InsufficientConnectivity {
                required: 3,
                actual: 2,
            },
        ),
        ("0", kecss::Error::ZeroK),
    ] {
        let err = run(&[
            "solve",
            "--input",
            instance.as_str(),
            "--algorithm",
            "greedy",
            "--k",
            k,
        ])
        .expect_err("an unsolvable request must fail");
        assert!(
            matches!(&err, kecss_cli::CliError::Solver(e) if *e == expected),
            "k = {k}: {err}"
        );
    }
}

#[test]
fn forest_baselines_refuse_a_disconnected_graph() {
    // Two components: 0-1 and 2-3.
    let instance = TempFile::new("two-components.graph");
    std::fs::write(instance.as_str(), "4\n0 1 1\n2 3 1\n").unwrap();
    for (algorithm, k, required) in [
        ("greedy", "2", 2),
        ("greedy", "1", 1),
        ("thurimella", "2", 2),
        ("mst", "2", 1),
        ("kecss", "2", 2),
    ] {
        let err = run(&[
            "solve",
            "--input",
            instance.as_str(),
            "--algorithm",
            algorithm,
            "--k",
            k,
        ])
        .expect_err("a disconnected graph has no spanning subgraph to certify");
        let expected = kecss::Error::InsufficientConnectivity {
            required,
            actual: 0,
        };
        assert!(
            matches!(&err, kecss_cli::CliError::Solver(e) if *e == expected),
            "{algorithm} --k {k}: {err}"
        );
    }
}

/// Starts `kecss serve <args>` with its output piped and returns the child,
/// the address its banner names, and the rest of its stdout.
fn serve(args: &[&str]) -> (Child, String, BufReader<ChildStdout>) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_kecss"))
        .arg("serve")
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("kecss starts");
    let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
    let mut banner = String::new();
    stdout.read_line(&mut banner).expect("a banner line");
    let addr = banner
        .split_once("listening on ")
        .and_then(|(_, rest)| rest.split_whitespace().next())
        .unwrap_or_else(|| panic!("no address in '{banner}'"))
        .to_string();
    (child, addr, stdout)
}

/// Shuts a `kecss serve` child down through its own port and returns its
/// stderr.
fn shut_down(mut child: Child, addr: &str, stdout: BufReader<ChildStdout>) -> String {
    Client::connect(addr).unwrap().shutdown().unwrap();
    let mut rest = String::new();
    BufReader::new(stdout.into_inner())
        .read_to_string(&mut rest)
        .unwrap();
    let mut stderr = String::new();
    child
        .stderr
        .take()
        .expect("piped stderr")
        .read_to_string(&mut stderr)
        .unwrap();
    assert!(child.wait().unwrap().success(), "{stderr}");
    stderr
}

#[test]
fn a_worker_whose_heartbeats_are_refused_says_so_once_and_keeps_beating() {
    // A standalone server answers every HEARTBEAT with an ERR: it is not a
    // coordinator.
    let (server, server_addr, server_out) = serve(&["--addr", "127.0.0.1:0", "--threads", "1"]);
    let (worker, worker_addr, worker_out) = serve(&[
        "--role",
        "worker",
        "--coordinator",
        &server_addr,
        "--addr",
        "127.0.0.1:0",
        "--threads",
        "1",
        "--heartbeat-ms",
        "20",
    ]);
    // Wait on the server's count of refused beats, not on a clock.
    let mut control = Client::connect(&server_addr).unwrap();
    let beats = |control: &mut Client| {
        let metrics = control.metrics().unwrap();
        metrics
            .lines()
            .find_map(|l| l.strip_prefix("server_requests_total{verb=\"HEARTBEAT\"} "))
            .map_or(0, |n| n.trim().parse::<u64>().unwrap())
    };
    while beats(&mut control) < 5 {
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    let stderr = shut_down(worker, &worker_addr, worker_out);
    drop(control);
    shut_down(server, &server_addr, server_out);
    let refusals: Vec<&str> = stderr
        .lines()
        .filter(|l| l.contains("refused the heartbeat"))
        .collect();
    assert_eq!(refusals.len(), 1, "{stderr}");
    assert!(refusals[0].contains("not a fleet coordinator"), "{stderr}");
}
