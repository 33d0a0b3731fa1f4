//! Whole-suite shape assertions on a representative cross-section — the
//! orderings the paper's conclusion rests on, checked per category.

use selcache::core::{AssistKind, JobEngine, MachineConfig, Scale, SimMode, SuiteResult, Version};
use selcache::workloads::{Benchmark, Category};

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

fn cross_section() -> [Benchmark; 6] {
    [
        Benchmark::Vpenta, // regular
        Benchmark::Swim,   // regular
        Benchmark::Perl,   // irregular
        Benchmark::Li,     // irregular
        Benchmark::Chaos,  // mixed
        Benchmark::TpcDQ1, // mixed
    ]
}

#[test]
fn category_ordering_matches_paper() {
    let suite = suite(MachineConfig::base(), AssistKind::Bypass, &cross_section());
    // Regular: software dominates hardware by a wide margin.
    let sw_reg = suite.average_by_category(Category::Regular, Version::PureSoftware);
    let hw_reg = suite.average_by_category(Category::Regular, Version::PureHardware);
    assert!(sw_reg > 30.0, "regular software average {sw_reg:.1}");
    assert!(hw_reg < 10.0, "regular hardware average {hw_reg:.1}");

    // Irregular: hardware beats software.
    let sw_irr = suite.average_by_category(Category::Irregular, Version::PureSoftware);
    let hw_irr = suite.average_by_category(Category::Irregular, Version::PureHardware);
    assert!(hw_irr > sw_irr, "irregular: hw {hw_irr:.1} should beat sw {sw_irr:.1}");

    // Mixed: selective beats both pure approaches.
    let sel_mix = suite.average_by_category(Category::Mixed, Version::Selective);
    let sw_mix = suite.average_by_category(Category::Mixed, Version::PureSoftware);
    let hw_mix = suite.average_by_category(Category::Mixed, Version::PureHardware);
    assert!(sel_mix >= sw_mix - 0.5, "mixed: selective {sel_mix:.1} vs sw {sw_mix:.1}");
    assert!(sel_mix > hw_mix, "mixed: selective {sel_mix:.1} vs hw {hw_mix:.1}");
}

#[test]
fn selective_is_superadditive_on_mixed_codes() {
    // Paper §5.1: the selective improvement can exceed the *sum* of the
    // pure approaches. Assert the weaker, robust form on the mixed codes:
    // selective ≥ max(pure hw, pure sw).
    let suite =
        suite(MachineConfig::base(), AssistKind::Bypass, &[Benchmark::Chaos, Benchmark::TpcDQ1]);
    for row in &suite.rows {
        let hw = row.improvement(Version::PureHardware);
        let sw = row.improvement(Version::PureSoftware);
        let sel = row.improvement(Version::Selective);
        assert!(
            sel >= hw.max(sw) - 0.5,
            "{}: selective {sel:.1} below max(hw {hw:.1}, sw {sw:.1})",
            row.benchmark
        );
    }
}

#[test]
fn csv_export_covers_every_row() {
    let suite =
        suite(MachineConfig::base(), AssistKind::Victim, &[Benchmark::Vpenta, Benchmark::Perl]);
    let csv = suite.to_csv();
    assert_eq!(csv.lines().count(), 3);
    assert!(csv.contains("Vpenta,regular,"));
    assert!(csv.contains("Perl,irregular,"));
}
