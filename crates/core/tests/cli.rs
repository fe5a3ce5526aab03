//! End-to-end tests of the `bayonet` CLI binary.

use std::path::PathBuf;
use std::process::Command;

fn bay_file(name: &str) -> String {
    let mut p = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    p.pop(); // crates/
    p.pop(); // repo root
    p.push("examples/bay");
    p.push(name);
    p.to_string_lossy().into_owned()
}

fn grid_file(name: &str) -> String {
    let mut p = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    p.pop(); // crates/
    p.pop(); // repo root
    p.push("examples/grids");
    p.push(name);
    p.to_string_lossy().into_owned()
}

fn cli(args: &[&str]) -> (bool, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_bayonet"))
        .args(args)
        .output()
        .expect("spawn bayonet CLI");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn check_accepts_valid_files() {
    let (ok, stdout, _) = cli(&["check", &bay_file("gossip_k4.bay")]);
    assert!(ok);
    assert!(stdout.contains("ok: 0 warning(s)"), "{stdout}");
}

#[test]
fn run_exact_gossip() {
    let (ok, stdout, _) = cli(&["run", &bay_file("gossip_k4.bay")]);
    assert!(ok);
    assert!(stdout.contains("94/27"), "{stdout}");
}

#[test]
fn run_with_bind_and_smc() {
    let (ok, stdout, _) = cli(&[
        "run",
        &bay_file("lossy_link.bay"),
        "--bind",
        "P_LOSS=1/2",
        "--engine",
        "smc",
        "--particles",
        "500",
        "--seed",
        "9",
    ]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("got@H1"), "{stdout}");
}

#[test]
fn run_unbound_parameter_fails_cleanly() {
    let (ok, _, stderr) = cli(&["run", &bay_file("lossy_link.bay"), "--engine", "smc"]);
    assert!(!ok);
    assert!(stderr.contains("error:"), "{stderr}");
}

#[test]
fn synthesize_prints_the_figure3_table() {
    let (ok, stdout, _) = cli(&["synthesize", &bay_file("ecmp_costs.bay")]);
    assert!(ok, "{stdout}");
    assert!(
        stdout.contains("COST_01 - COST_02 - COST_21 == 0"),
        "{stdout}"
    );
    assert!(stdout.contains("30378810105265/67706637778944"), "{stdout}");
}

#[test]
fn codegen_targets() {
    let (ok, psi, _) = cli(&["codegen", &bay_file("gossip_k4.bay"), "--target", "psi"]);
    assert!(ok);
    assert!(psi.contains("dat Network"), "{psi}");
    let (ok, webppl, _) = cli(&["codegen", &bay_file("gossip_k4.bay"), "--target", "webppl"]);
    assert!(ok);
    assert!(webppl.contains("Infer({method: 'SMC'"), "{webppl}");
}

#[test]
fn codegen_is_byte_identical_across_runs() {
    // Each run hashes the topology with a fresh random seed, so an output
    // that followed hash-map order would differ between the runs.
    for target in ["psi", "webppl"] {
        let outputs: Vec<String> = (0..3)
            .map(|_| {
                let (ok, out, err) =
                    cli(&["codegen", &bay_file("gossip_k4.bay"), "--target", target]);
                assert!(ok, "{err}");
                out
            })
            .collect();
        assert_eq!(outputs[0], outputs[1], "--target {target}");
        assert_eq!(outputs[0], outputs[2], "--target {target}");
    }
}

#[test]
fn pretty_is_reparseable_by_check() {
    let (ok, pretty, _) = cli(&["pretty", &bay_file("ecmp_costs.bay")]);
    assert!(ok);
    // Feed the pretty output back through the front-end.
    let program = bayonet::parse(&pretty).expect("pretty output parses");
    assert!(bayonet::check(&program).is_ok());
}

#[test]
fn simulate_renders_a_log() {
    let (ok, stdout, _) = cli(&[
        "run",
        &bay_file("gossip_k4.bay"),
        "--engine",
        "simulate",
        "--seed",
        "1",
    ]);
    assert!(ok);
    assert!(stdout.contains("Run  S0"), "{stdout}");
    assert!(stdout.contains("terminal"), "{stdout}");
}

#[test]
fn unknown_flags_and_commands_error() {
    let (ok, _, stderr) = cli(&["frobnicate", &bay_file("gossip_k4.bay")]);
    assert!(!ok);
    assert!(stderr.contains("unknown command"), "{stderr}");
    let (ok, _, stderr) = cli(&["run", &bay_file("gossip_k4.bay"), "--engine", "magic"]);
    assert!(!ok);
    assert!(stderr.contains("unknown engine"), "{stderr}");
}

#[test]
fn rejects_unknown_flags() {
    let (ok, _, stderr) = cli(&["run", &bay_file("gossip_k4.bay"), "--frobnicate"]);
    assert!(!ok);
    assert!(stderr.contains("unknown flag `--frobnicate`"), "{stderr}");
    // Flags from other subcommands are unknown here too.
    let (ok, _, stderr) = cli(&["check", &bay_file("gossip_k4.bay"), "--engine", "exact"]);
    assert!(!ok);
    assert!(stderr.contains("unknown flag `--engine`"), "{stderr}");
    let (ok, _, stderr) = cli(&[
        "synthesize",
        &bay_file("ecmp_costs.bay"),
        "--particles",
        "9",
    ]);
    assert!(!ok);
    assert!(stderr.contains("unknown flag `--particles`"), "{stderr}");
}

#[test]
fn rejects_missing_flag_values() {
    // Value missing at the end of the argument list.
    let (ok, _, stderr) = cli(&["run", &bay_file("gossip_k4.bay"), "--engine"]);
    assert!(!ok);
    assert!(stderr.contains("--engine needs a value"), "{stderr}");
    // Another flag where the value should be.
    let (ok, _, stderr) = cli(&[
        "run",
        &bay_file("gossip_k4.bay"),
        "--seed",
        "--particles",
        "10",
    ]);
    assert!(!ok);
    assert!(stderr.contains("--seed needs a value"), "{stderr}");
}

#[test]
fn rejects_stray_positional_arguments() {
    let (ok, _, stderr) = cli(&["run", &bay_file("gossip_k4.bay"), "extra.bay"]);
    assert!(!ok);
    assert!(
        stderr.contains("unexpected argument `extra.bay`"),
        "{stderr}"
    );
}

#[test]
fn run_stats_flag_reports_to_stderr() {
    let (ok, stdout, stderr) = cli(&["run", &bay_file("gossip_k4.bay"), "--stats"]);
    assert!(ok, "{stderr}");
    // stdout is unchanged by --stats.
    assert!(stdout.contains("94/27"), "{stdout}");
    assert!(!stdout.contains("stats:"), "{stdout}");
    assert!(stderr.contains("states expanded"), "{stderr}");
    assert!(stderr.contains("merged"), "{stderr}");
    assert!(stderr.contains("terminal mass"), "{stderr}");
    assert!(stderr.contains("ms wall"), "{stderr}");
}

#[test]
fn serve_rejects_bad_flags() {
    let (ok, _, stderr) = cli(&["serve", "--port", "80"]);
    assert!(!ok);
    assert!(stderr.contains("unknown flag `--port`"), "{stderr}");
    let (ok, _, stderr) = cli(&["serve", "--threads"]);
    assert!(!ok);
    assert!(stderr.contains("--threads needs a value"), "{stderr}");
    let (ok, _, stderr) = cli(&["serve", "--threads", "banana"]);
    assert!(!ok);
    assert!(stderr.contains("bad --threads value"), "{stderr}");
}

#[test]
fn run_auto_engine_routes_and_explains() {
    // Round-robin gossip_k4 routes to the BDD backend; the posterior
    // matches the explicit run bit for bit and the plan goes to stderr only.
    let (ok, stdout, stderr) = cli(&[
        "run",
        &bay_file("gossip_k4.bay"),
        "--engine",
        "auto",
        "--explain-plan",
        "--scheduler",
        "det",
    ]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("94/27"), "{stdout}");
    assert!(!stdout.contains("plan:"), "{stdout}");
    assert!(stderr.contains("plan: engine=bdd"), "{stderr}");
    assert!(stderr.contains("est_cost="), "{stderr}");
    assert!(stderr.contains("shared_program_nodes="), "{stderr}");

    // Under its own uniform scheduler it routes to enumeration, and the
    // pilot finishes the run, so the estimate is the exact count.
    let (ok, stdout, stderr) = cli(&[
        "run",
        &bay_file("gossip_k4.bay"),
        "--engine",
        "auto",
        "--explain-plan",
    ]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("94/27"), "{stdout}");
    assert!(
        stderr.contains("plan: engine=enum") && stderr.contains("est_expansions=1529 "),
        "{stderr}"
    );
    assert!(stderr.contains("finished=true"), "{stderr}");

    // --explain-plan also works with an explicit engine and never changes
    // what actually runs.
    let (ok, stdout, stderr) = cli(&[
        "run",
        &bay_file("gossip_k4.bay"),
        "--engine",
        "bdd",
        "--explain-plan",
    ]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("94/27"), "{stdout}");
    assert!(stderr.contains("plan: engine=enum"), "{stderr}");
}

#[test]
fn run_sweep_streams_one_frame_per_grid_point() {
    let (ok, stdout, stderr) = cli(&[
        "run",
        &bay_file("gossip_k4_sweep.bay"),
        "--sweep",
        &grid_file("gossip_k.json"),
    ]);
    assert!(ok, "{stderr}");
    let frames: Vec<&str> = stdout.lines().collect();
    assert_eq!(frames.len(), 4, "{stdout}");
    for (i, frame) in frames.iter().enumerate() {
        assert!(
            frame.contains(&format!("\"index\":{i},\"status\":200")),
            "frame {i}: {frame}"
        );
        assert!(
            frame.contains(&format!("\"point\":{{\"K\":\"{}\"}}", i + 1)),
            "frame {i}: {frame}"
        );
    }
    // K = 1: the seed node always infects itself, so the probability is 1,
    // and the query handlers never read K, so the route is symbolic.
    assert!(
        frames[0].contains("1 \\u{2248} 1.0000") || frames[0].contains("1 ≈ 1.0000"),
        "{}",
        frames[0]
    );
    assert!(
        frames[0].contains("\"route\":\"symbolic\""),
        "{}",
        frames[0]
    );
}

#[test]
fn run_sweep_rejects_incompatible_flags_and_bad_grids() {
    let source = bay_file("gossip_k4_sweep.bay");
    let grid = grid_file("gossip_k.json");
    let (ok, _, stderr) = cli(&["run", &source, "--sweep", &grid, "--batch"]);
    assert!(!ok);
    assert!(
        stderr.contains("--batch cannot be combined with --sweep"),
        "{stderr}"
    );
    let (ok, _, stderr) = cli(&["run", &source, "--sweep", &grid, "--stats"]);
    assert!(!ok);
    assert!(
        stderr.contains("--stats cannot be combined with --sweep"),
        "{stderr}"
    );
    let (ok, _, stderr) = cli(&["run", &source, "--sweep", "/no/such/grid.json"]);
    assert!(!ok);
    assert!(stderr.contains("cannot read sweep grid"), "{stderr}");
    // A grid naming an undeclared parameter surfaces the structured 400.
    let (ok, _, stderr) = cli(&["run", &bay_file("gossip_k4.bay"), "--sweep", &grid]);
    assert!(!ok);
    assert!(stderr.contains("unknown swept parameter `K`"), "{stderr}");
}

/// Two senders and one receiver with a capacity-1 queue: the scheduler
/// decides whether both packets arrive (1 under round-robin, 0 under the
/// rotor, 5/8 under the uniform scheduler).
const TWO_SENDERS: &str = "\
packet_fields { tag }
topology { nodes { A, B, C } links { (A, pt1) <-> (C, pt1), (B, pt1) <-> (C, pt2) } }
programs { A -> send, B -> send, C -> recv }
queue_capacity 1;
init { packet -> (A, pt1); packet -> (B, pt1); }
query probability(got@C == 2);
def send(pkt, pt) { fwd(1); }
def recv(pkt, pt) state got(0) { got = got + 1; drop; }
";

/// Writes `source` to a fresh file in the temp directory.
fn temp_program(name: &str, source: &str) -> String {
    let path = std::env::temp_dir().join(format!("bayonet-cli-{}-{name}", std::process::id()));
    std::fs::write(&path, source).expect("write temp program");
    path.to_string_lossy().into_owned()
}

#[test]
fn scheduler_override_reaches_the_psi_backend() {
    let file = temp_program("two_senders.bay", TWO_SENDERS);
    let (ok, stdout, stderr) = cli(&["run", &file, "--engine", "psi", "--scheduler", "det"]);
    assert!(ok, "{stderr}");
    assert_eq!(stdout, "got@C == 2: 1 ≈ 1.0000\n");
    // The PSI back end has no rotor scheduler: the override is refused,
    // not silently replaced by the uniform scheduler.
    let (ok, stdout, stderr) = cli(&["run", &file, "--engine", "psi", "--scheduler", "rotor"]);
    assert!(!ok, "{stdout}");
    assert!(stderr.contains("not supported"), "{stderr}");
    let _ = std::fs::remove_file(file);
}

#[test]
fn scheduler_override_reaches_the_planner() {
    let (ok, _, stderr) = cli(&[
        "run",
        &bay_file("gossip_k4.bay"),
        "--engine",
        "auto",
        "--explain-plan",
        "--scheduler",
        "rotor",
    ]);
    assert!(ok, "{stderr}");
    assert!(
        stderr.contains("sched_branching=1.0") && stderr.contains("symmetry_order=1 "),
        "{stderr}"
    );
}

#[test]
fn scheduler_override_equals_declaring_the_scheduler() {
    let gossip = std::fs::read_to_string(bay_file("gossip_k4.bay")).expect("read gossip_k4");
    let declared = temp_program("gossip_rotor.bay", &format!("{gossip}\nscheduler rotor;\n"));
    let (ok, overridden, stderr) =
        cli(&["run", &bay_file("gossip_k4.bay"), "--scheduler", "rotor"]);
    assert!(ok, "{stderr}");
    let (ok, expected, stderr) = cli(&["run", &declared]);
    assert!(ok, "{stderr}");
    assert_eq!(overridden, expected);
    let _ = std::fs::remove_file(declared);
}
