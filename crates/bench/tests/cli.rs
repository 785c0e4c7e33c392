//! Command-line failure modes of the `repro` binary: misspelled or
//! incompatible flags exit 2 with a typed message and a near-miss
//! suggestion — never a panic, never a silent fallback run.

/// Runs `repro` with `args`, returning (exit code, stderr).
fn run_repro(args: &[&str]) -> (Option<i32>, String) {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("spawn repro");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

/// `repro --tier` with a misspelled tier exits 2 with a near-miss
/// suggestion and the known-tier list — not a panic, not a silent
/// fast-tier run.
#[test]
fn repro_unknown_tier_exits_2_with_suggestion() {
    let (code, stderr) = run_repro(&["--tier", "physcial", "fig7"]);
    assert_eq!(code, Some(2), "stderr: {stderr}");
    assert!(stderr.contains("unknown tier"), "{stderr}");
    assert!(
        stderr.contains("did you mean: physical"),
        "near-miss suggestion missing: {stderr}"
    );
    assert!(stderr.contains("known tiers: fast, physical"), "{stderr}");
}

/// A tier nothing resembles still exits 2 and lists the known tiers
/// (no suggestion line to mislead).
#[test]
fn repro_hopeless_tier_lists_known_tiers() {
    let (code, stderr) = run_repro(&["--tier", "warp-speed", "fig7"]);
    assert_eq!(code, Some(2), "stderr: {stderr}");
    assert!(!stderr.contains("did you mean"), "{stderr}");
    assert!(stderr.contains("known tiers"), "{stderr}");
}

/// `repro --tier physical` with a figure whose measurement cannot run
/// on a selectable tier (no swept simulator) exits 2 naming the
/// tier-capable figures.
#[test]
fn repro_physical_tier_rejects_unsweepable_figure() {
    for id in ["power", "fig2a", "calibration_ber"] {
        let (code, stderr) = run_repro(&["--tier", "physical", id]);
        assert_eq!(code, Some(2), "{id} stderr: {stderr}");
        assert!(
            stderr.contains("cannot run on the physical tier"),
            "{id}: {stderr}"
        );
        assert!(
            stderr.contains("tier-capable figures") && stderr.contains("fig7"),
            "{id}: capable-figure suggestion missing: {stderr}"
        );
    }
}

/// `--tier physical` refuses the golden modes (goldens are fast-tier
/// canonical) instead of diffing apples against oranges.
#[test]
fn repro_physical_tier_rejects_check_bless_perf() {
    for mode in [&["--check"][..], &["--bless"]] {
        let mut args = vec!["--tier", "physical"];
        args.extend_from_slice(mode);
        args.push("fig7");
        let (code, stderr) = run_repro(&args);
        assert_eq!(code, Some(2), "{mode:?} stderr: {stderr}");
        assert!(stderr.contains("fast-tier canonical"), "{mode:?}: {stderr}");
    }
}

/// Unknown experiment ids keep their near-miss suggestions when a tier
/// is selected (id resolution runs before tier-capability checks).
#[test]
fn repro_unknown_id_with_tier_still_suggests() {
    let (code, stderr) = run_repro(&["--tier", "physical", "fig8"]);
    assert_eq!(code, Some(2), "stderr: {stderr}");
    assert!(stderr.contains("unknown experiment id"), "{stderr}");
    assert!(stderr.contains("fig8a"), "{stderr}");
}

/// `repro --fault` with a misspelled fault kind exits 2 with a
/// near-miss suggestion and the known-kind list — not a panic, not a
/// silent fault-free run.
#[test]
fn repro_unknown_fault_exits_2_with_suggestion() {
    let (code, stderr) = run_repro(&["--fault", "outge", "fault_resilience"]);
    assert_eq!(code, Some(2), "stderr: {stderr}");
    assert!(stderr.contains("unknown fault kind"), "{stderr}");
    assert!(
        stderr.contains("did you mean: outage"),
        "near-miss suggestion missing: {stderr}"
    );
    assert!(
        stderr.contains("known fault kinds: outage, brownout, burst, reset"),
        "{stderr}"
    );
}

/// A fault kind nothing resembles still exits 2 and lists the known
/// kinds (no suggestion line to mislead).
#[test]
fn repro_hopeless_fault_lists_known_kinds() {
    let (code, stderr) = run_repro(&["--fault", "meteor-strike", "fault_resilience"]);
    assert_eq!(code, Some(2), "stderr: {stderr}");
    assert!(!stderr.contains("did you mean"), "{stderr}");
    assert!(stderr.contains("known fault kinds"), "{stderr}");
}

/// `--fault` only applies to the fault-resilience family; a valid kind
/// with any other figure exits 2 naming the fault-capable figures.
#[test]
fn repro_fault_rejects_non_fault_figure() {
    for id in ["fig7", "power", "workload_slo_miss"] {
        let (code, stderr) = run_repro(&["--fault", "burst", id]);
        assert_eq!(code, Some(2), "{id} stderr: {stderr}");
        assert!(stderr.contains("does not inject faults"), "{id}: {stderr}");
        assert!(
            stderr.contains("fault-capable figures") && stderr.contains("fault_resilience_goodput"),
            "{id}: capable-figure suggestion missing: {stderr}"
        );
    }
}

/// `--fault` refuses the golden modes (goldens record the full
/// fault-class set) instead of diffing a restricted build against
/// full-set references.
#[test]
fn repro_fault_rejects_check_bless_perf() {
    for mode in [&["--check"][..], &["--bless"]] {
        let mut args = vec!["--fault", "outage"];
        args.extend_from_slice(mode);
        args.push("fault_resilience_goodput");
        let (code, stderr) = run_repro(&args);
        assert_eq!(code, Some(2), "{mode:?} stderr: {stderr}");
        assert!(
            stderr.contains("does not combine with --check/--bless"),
            "{mode:?}: {stderr}"
        );
    }
}

/// The retired perf-series flags are unknown flags: each exits 2 on
/// the `unknown flag` path, before anything runs or is written.
#[test]
fn repro_retired_perf_flags_are_unknown() {
    for args in [&["--perf", "x"][..], &["--gate"], &["--label", "y"]] {
        let (code, stderr) = run_repro(args);
        assert_eq!(code, Some(2), "{args:?} stderr: {stderr}");
        assert!(
            stderr.contains(&format!("unknown flag: {}", args[0])),
            "{args:?}: {stderr}"
        );
    }
}

/// A figure named twice regenerates once: ids resolve to a set, in
/// first-mention order.
#[test]
fn repro_repeated_id_runs_once() {
    let (code, stderr) = run_repro(&["fig2a", "fig2a"]);
    assert_eq!(code, Some(0), "stderr: {stderr}");
    assert!(
        stderr.contains("regenerating 1 experiment(s)"),
        "repeated id ran twice: {stderr}"
    );
}

/// A corpus city past the deployment work budget — a 2^64-slot horizon,
/// or four billion tags — exits 2 with the budget hint within a second,
/// instead of hanging the campaign.
#[test]
fn repro_campaign_rejects_an_oversized_city_with_exit_2() {
    let corpus = concat!(env!("CARGO_MANIFEST_DIR"), "/../../corpus");
    for (file, from, to) in [
        (
            "spokane.json",
            "\"slots\": 240",
            "\"slots\": 18446744073709551615",
        ),
        ("boulder.json", "\"n_tags\": 48", "\"n_tags\": 4000000000"),
    ] {
        let dir = std::env::temp_dir().join(format!("fmbs_cli_budget_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let text = std::fs::read_to_string(format!("{corpus}/{file}")).unwrap();
        assert!(text.contains(from), "{file} no longer holds {from}");
        std::fs::write(dir.join(file), text.replace(from, to)).unwrap();
        let start = std::time::Instant::now();
        let (code, stderr) = run_repro(&["--campaign", "--corpus", dir.to_str().unwrap()]);
        let elapsed = start.elapsed();
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(code, Some(2), "{file}: {stderr}");
        assert!(stderr.contains("work budget"), "{file}: {stderr}");
        assert!(stderr.contains(".work_budget("), "{file}: {stderr}");
        assert!(elapsed.as_secs_f64() < 1.0, "{file}: took {elapsed:?}");
    }
}
