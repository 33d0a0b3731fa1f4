//! Integration tests asserting the paper's qualitative claims hold in the
//! reproduction (at `Scale::Tiny`, so they run quickly in CI).

use selcache::core::{
    AssistKind, Experiment, JobEngine, MachineConfig, SimMode, SuiteResult, Version,
};
use selcache::workloads::{Benchmark, Scale};

fn experiment(assist: AssistKind) -> Experiment {
    Experiment::new(MachineConfig::base(), assist)
}

/// An exact suite over `benchmarks` at tiny scale.
fn suite(machine: MachineConfig, assist: AssistKind, benchmarks: &[Benchmark]) -> SuiteResult {
    SuiteResult::run(
        &JobEngine::default(),
        machine,
        assist,
        Scale::Tiny,
        benchmarks,
        SimMode::Exact,
    )
}

fn improvements(exp: &Experiment, bm: Benchmark) -> [f64; 4] {
    let p = bm.build(Scale::Tiny);
    let base = exp.run_program(&p, Version::Base);
    let mut out = [0.0; 4];
    for (k, v) in Version::REPORTED.iter().enumerate() {
        let prepared = exp.prepare(&p, *v);
        out[k] = exp.run_program(&prepared, *v).improvement_over(&base);
    }
    out // [PureHW, PureSW, Combined, Selective]
}

#[test]
fn software_dominates_on_regular_codes() {
    // Paper: pure software averages 26.6% on regular codes; pure hardware
    // only 2.2%.
    let exp = experiment(AssistKind::Bypass);
    for bm in [Benchmark::Vpenta, Benchmark::Swim, Benchmark::Adi, Benchmark::Mgrid] {
        let [hw, sw, _, _] = improvements(&exp, bm);
        assert!(sw > 20.0, "{bm}: software improvement {sw:.1}% too small");
        assert!(sw > hw + 10.0, "{bm}: software {sw:.1}% should dwarf hardware {hw:.1}%");
    }
}

#[test]
fn software_is_useless_on_irregular_codes() {
    // Paper: pure software improves codes with irregular access by only
    // 0.8% on average.
    let exp = experiment(AssistKind::Bypass);
    for bm in [Benchmark::Perl, Benchmark::Li, Benchmark::Compress, Benchmark::Applu] {
        let [_, sw, _, _] = improvements(&exp, bm);
        assert!(sw.abs() < 3.0, "{bm}: software improvement {sw:.1}% should be near zero");
    }
}

#[test]
fn hardware_helps_irregular_codes() {
    // Paper: pure hardware does best on irregular access (5.1% average).
    let exp = experiment(AssistKind::Bypass);
    for bm in [Benchmark::Perl, Benchmark::Li, Benchmark::Applu] {
        let [hw, ..] = improvements(&exp, bm);
        assert!(hw > 0.2, "{bm}: hardware improvement {hw:.1}% should be positive");
    }
}

#[test]
fn bypassing_can_hurt_ill_cases() {
    // Paper: "the cache bypassing decreased the performance up to a 12% for
    // some ill cases".
    let exp = experiment(AssistKind::Bypass);
    let [hw, ..] = improvements(&exp, Benchmark::Chaos);
    assert!(hw < -2.0, "chaos pure hardware should regress, got {hw:.1}%");
    assert!(hw > -15.0, "regression should stay bounded, got {hw:.1}%");
}

#[test]
fn victim_cache_never_hurts_much() {
    // Paper: "victim caches ... performed always better than the base
    // configuration".
    let exp = experiment(AssistKind::Victim);
    for bm in [Benchmark::Perl, Benchmark::Chaos, Benchmark::Vpenta, Benchmark::TpcDQ6] {
        let [hw, ..] = improvements(&exp, bm);
        assert!(hw > -0.7, "{bm}: victim cache should not hurt, got {hw:.1}%");
    }
}

#[test]
fn selective_beats_combined_on_average() {
    // Paper: the selective strategy brings 7.6pp more than combined on
    // average; we assert the ordering, not the magnitude.
    let suite = suite(
        MachineConfig::base(),
        AssistKind::Bypass,
        &[
            Benchmark::Swim,
            Benchmark::Chaos,
            Benchmark::Mgrid,
            Benchmark::TpcDQ6,
            Benchmark::TpcDQ1,
        ],
    );
    let combined = suite.average(Version::Combined);
    let selective = suite.average(Version::Selective);
    assert!(selective > combined, "selective {selective:.2}% should beat combined {combined:.2}%");
}

#[test]
fn selective_never_much_worse_than_any_version() {
    // Paper: "our selective approach has better or (at least) the same
    // performance for all the benchmarks". We allow a small tolerance for
    // the cross-phase protection effect discussed in EXPERIMENTS.md.
    let exp = experiment(AssistKind::Bypass);
    for bm in [Benchmark::Vpenta, Benchmark::Chaos, Benchmark::Perl, Benchmark::TpcDQ3] {
        let [hw, sw, combined, selective] = improvements(&exp, bm);
        let best = hw.max(sw).max(combined);
        assert!(
            selective > best - 2.5,
            "{bm}: selective {selective:.1}% far below best {best:.1}%"
        );
    }
}

#[test]
fn conflict_misses_present_in_irregular_codes() {
    // Paper: conflict misses are 53–72% of all misses. Our synthetic base
    // codes are capacity-thrash driven instead (see EXPERIMENTS.md), but
    // the irregular codes must still show measurable conflict misses —
    // that is what the assists act on.
    let exp = experiment(AssistKind::None);
    for bm in [Benchmark::Perl, Benchmark::Applu, Benchmark::Chaos] {
        let r = exp.run(bm, Scale::Tiny, Version::Base);
        assert!(
            r.mem.l1d.conflict > 100,
            "{bm}: expected conflict misses, got {}",
            r.mem.l1d.conflict
        );
    }
}

#[test]
fn selective_runs_with_markers_and_toggles() {
    let exp = experiment(AssistKind::Bypass);
    let p = Benchmark::Chaos.build(Scale::Tiny);
    let prepared = exp.prepare(&p, Version::Selective);
    assert!(prepared.marker_count() > 0, "selective code must contain markers");
    let r = exp.run_program(&prepared, Version::Selective);
    assert!(r.cpu.assist_toggles > 0, "selective run must execute toggles");
}

#[test]
fn higher_associativity_shrinks_improvements() {
    // Paper Figures 8/9: raising associativity reduces the impact of every
    // scheme (conflicts shrink).
    let base_suite = suite(MachineConfig::base(), AssistKind::Bypass, &[Benchmark::Vpenta]);
    let high_assoc =
        suite(MachineConfig::higher_l1_assoc(), AssistKind::Bypass, &[Benchmark::Vpenta]);
    assert!(
        high_assoc.average(Version::Selective) <= base_suite.average(Version::Selective) + 1.0,
        "8-way L1 should not increase vpenta's improvement: {} vs {}",
        high_assoc.average(Version::Selective),
        base_suite.average(Version::Selective)
    );
}
