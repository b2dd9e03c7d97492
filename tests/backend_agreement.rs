//! Backend agreement: the explicit and symbolic engines must produce
//! identical coverage verdicts on randomized coverage problems, and every
//! symbolic witness must satisfy the lasso-semantics oracle *and* replay
//! against the concrete modules on the simulator.
//!
//! This is the acid test for the symbolic backend: the two engines share
//! no model-checking code (Tarjan over explicit products vs Emerson–Lei
//! over BDD images), so agreement over random netlists × random LTL is
//! strong evidence both implement the same semantics.

use proptest::prelude::*;
use specmatcher::core::{primary_coverage, Backend, CoverageModel, GapConfig, SpecMatcher};
use specmatcher::ltl::Ltl;

mod common;
use common::{random_problem, replay};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Identical verdicts from both backends; symbolic witnesses satisfy
    /// `Ltl::holds_on` for `R ∧ ¬A` and replay on the concrete modules.
    #[test]
    fn backends_agree_on_random_coverage_problems(seed in 1u64..100_000) {
        let (t, arch, rtl) = random_problem(seed);
        let fa = arch.properties()[0].formula();

        let explicit =
            CoverageModel::build_with_backend(&arch, &rtl, &t, Backend::Explicit)
                .expect("small model fits the explicit engine");
        let verdict_e = primary_coverage(fa, &rtl, &explicit).expect("explicit is total");

        let symbolic =
            CoverageModel::build_with_backend(&arch, &rtl, &t, Backend::Symbolic)
                .expect("symbolic builds");
        let verdict_s = primary_coverage(fa, &rtl, &symbolic).expect("within node budget");

        prop_assert_eq!(
            verdict_e.is_some(),
            verdict_s.is_some(),
            "backends disagree on seed {}: A = {}",
            seed,
            fa.display(&t)
        );

        if let Some(w) = verdict_s {
            // The witness refutes coverage: it satisfies every R and ¬A…
            prop_assert!(!fa.holds_on(&w), "witness fails to refute A (seed {})", seed);
            for p in rtl.properties() {
                prop_assert!(
                    p.formula().holds_on(&w),
                    "witness violates {} (seed {})",
                    p.name(),
                    seed
                );
            }
            // …and is a real run of the concrete modules.
            replay(&symbolic, &t, &w);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Full-pipeline agreement: on random *gapped* coverage problems, the
    /// explicit and symbolic engines must report the same set of weakest
    /// gap properties — not just the same verdict. The engines share
    /// Algorithm 1's control flow but none of the model-checking oracle,
    /// so agreement here exercises scenario probing, generalization,
    /// quantification and closure checking end to end on both.
    #[test]
    fn gap_property_sets_agree_on_random_gapped_problems(seed in 1u64..100_000) {
        let (t, arch, rtl) = random_problem(seed);
        let config = GapConfig {
            term_depth: 2,
            max_terms: 3,
            max_candidates: 24,
            max_gap_properties: 4,
            ..GapConfig::default()
        };

        let run_e = SpecMatcher::new(config.clone())
            .with_backend(Backend::Explicit)
            .check(&arch, &rtl, &t)
            .expect("explicit pipeline runs");
        let run_s = SpecMatcher::new(config)
            .with_backend(Backend::Symbolic)
            .check(&arch, &rtl, &t)
            .expect("symbolic pipeline runs");

        prop_assert_eq!(run_e.all_covered(), run_s.all_covered(), "verdicts (seed {})", seed);
        for (re, rs) in run_e.properties.iter().zip(&run_s.properties) {
            let normalize = |rep: &specmatcher::core::PropertyReport| {
                let mut v: Vec<String> = rep
                    .gap_properties
                    .iter()
                    .map(|g| g.formula.display(&t).to_string())
                    .collect();
                v.sort();
                v
            };
            prop_assert_eq!(
                normalize(re),
                normalize(rs),
                "gap property sets diverge on seed {}: A = {}",
                seed,
                re.formula.display(&t)
            );
            // Both engines' gap-property witnesses replay on the modules.
            for g in re.gap_properties.iter().chain(&rs.gap_properties) {
                prop_assert!(!re.formula.holds_on(&g.witness));
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Soundness cross-check of the bounded SAT tier: whenever
    /// `bounded_lasso` claims a run of `M` satisfying `R ∧ ¬A` within `k`
    /// steps, the unbounded fixpoint oracle must agree the conjunction is
    /// satisfiable, the run must satisfy every conjunct under
    /// `Ltl::holds_on`, and it must replay on the concrete modules. (The
    /// converse direction is intentionally unasserted: UNSAT within a
    /// bound proves nothing, which is exactly why the tier may only ever
    /// short-circuit SAT answers.)
    #[test]
    fn bmc_refutations_agree_with_fixpoint_verdicts(seed in 1u64..100_000) {
        let (t, arch, rtl) = random_problem(seed);
        let fa = arch.properties()[0].formula();
        let model =
            CoverageModel::build_with_backend(&arch, &rtl, &t, Backend::Explicit)
                .expect("small model fits the explicit engine");
        let verdict = primary_coverage(fa, &rtl, &model).expect("explicit is total");

        let mut formulas: Vec<Ltl> =
            rtl.properties().iter().map(|p| p.formula().clone()).collect();
        formulas.push(Ltl::not(fa.clone()));
        let bounded = specmatcher::sat::bounded_lasso(
            model.composed(),
            &t,
            model.free_signals(),
            &formulas,
            16,
        );
        if let Some(run) = bounded {
            prop_assert!(
                verdict.is_some(),
                "BMC found a run the fixpoint oracle says cannot exist (seed {}): A = {}",
                seed,
                fa.display(&t)
            );
            for (i, f) in formulas.iter().enumerate() {
                prop_assert!(
                    f.holds_on(&run),
                    "BMC run violates conjunct {} (seed {}): {}",
                    i,
                    seed,
                    f.display(&t)
                );
            }
            replay(&model, &t, &run);
        }
    }
}

/// The ordered gap-set identity across engines, on a real Table 1
/// design: same gap properties, same order, same witness-free rendering
/// from the explicit engine, which never runs the bounded SAT tier, and
/// the symbolic engine, where the tier fronts every closure fixpoint. The
/// primary witnesses and uncovered terms may differ between the engines,
/// so only the gap fingerprints are compared.
fn assert_backends_agree_on_gap_sets(design: &specmatcher::designs::Design) {
    let run_on = |backend: Backend| {
        let matcher = SpecMatcher::new(GapConfig::default()).with_backend(backend);
        design.check(&matcher).expect("packaged design runs")
    };
    let explicit = run_on(Backend::Explicit);
    let symbolic = run_on(Backend::Symbolic);
    assert_eq!(
        explicit.all_covered(),
        symbolic.all_covered(),
        "{}",
        design.name
    );
    let fingerprint = dic_bench::gap_fingerprint(&explicit, &design.table);
    assert!(!fingerprint.is_empty(), "{}: no gap reported", design.name);
    assert_eq!(
        fingerprint,
        dic_bench::gap_fingerprint(&symbolic, &design.table),
        "{}: ordered gap sets diverge between the explicit and symbolic engines",
        design.name
    );
}

#[test]
fn backends_report_identical_gap_sets_on_the_toy_design() {
    assert_backends_agree_on_gap_sets(&specmatcher::designs::mal::ex2());
}

#[test]
#[ignore = "explicit and symbolic mal-26 pipelines, ~2.5 min in release; nightly lane"]
fn backends_report_identical_gap_sets_on_mal26() {
    assert_backends_agree_on_gap_sets(&specmatcher::designs::mal::mal26());
}

#[test]
#[ignore = "explicit and forced-symbolic pipeline-12 runs; nightly lane with the other Table 1 rows"]
fn backends_report_identical_gap_sets_on_pipeline() {
    assert_backends_agree_on_gap_sets(&specmatcher::designs::pipeline::pipeline12());
}

#[test]
#[ignore = "explicit and forced-symbolic amba-ahb gap phases, ~15 s in release; nightly lane"]
fn backends_report_identical_gap_sets_on_amba_ahb() {
    assert_backends_agree_on_gap_sets(&specmatcher::designs::amba::ahb29());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// An incremental bounded session over `R ∧ ¬A` answers each
    /// candidate exactly as a one-shot `bounded_lasso` over the whole
    /// conjunction does — in whatever order the candidates arrive — and
    /// every session witness satisfies all conjuncts and replays on the
    /// concrete modules.
    #[test]
    fn bmc_session_answers_match_one_shot_queries(seed in 1u64..100_000) {
        use specmatcher::ltl::random::{random_formula, XorShift64};
        let (t, arch, rtl) = random_problem(seed);
        let fa = arch.properties()[0].formula();
        let model = CoverageModel::build_with_backend(&arch, &rtl, &t, Backend::Explicit)
            .expect("small model fits the explicit engine");
        let mut base: Vec<Ltl> = rtl.formulas().to_vec();
        base.push(Ltl::not(fa.clone()));
        let atoms: Vec<_> = base
            .iter()
            .flat_map(|f| f.atoms())
            .collect::<std::collections::BTreeSet<_>>()
            .into_iter()
            .collect();
        if atoms.is_empty() {
            return;
        }
        let mut rng = XorShift64::new(seed ^ 0x5E55_10E5);
        let candidates: Vec<Ltl> = (0..5)
            .map(|_| {
                let budget = 2 + rng.below(4);
                random_formula(&mut rng, &atoms, budget)
            })
            .collect();
        let depth = 8;
        let one_shot: Vec<bool> = candidates
            .iter()
            .map(|c| {
                let mut all = base.clone();
                all.push(c.clone());
                specmatcher::sat::bounded_lasso(
                    model.composed(),
                    &t,
                    model.free_signals(),
                    &all,
                    depth,
                )
                .is_some()
            })
            .collect();
        let forward: Vec<usize> = (0..candidates.len()).collect();
        let backward: Vec<usize> = forward.iter().rev().copied().collect();
        for order in [forward, backward] {
            let mut session = specmatcher::sat::BmcSession::new(
                model.composed(),
                &t,
                model.free_signals(),
                &base,
                depth,
            );
            for &i in &order {
                let got = session.query(std::slice::from_ref(&candidates[i]));
                prop_assert_eq!(
                    got.is_some(),
                    one_shot[i],
                    "session and one-shot disagree on candidate {} (seed {}, order {:?})",
                    i,
                    seed,
                    order
                );
                if let Some(run) = got {
                    for f in base.iter().chain([&candidates[i]]) {
                        prop_assert!(
                            f.holds_on(&run),
                            "witness violates {} (seed {})",
                            f.display(&t),
                            seed
                        );
                    }
                    replay(&model, &t, &run);
                }
            }
        }
    }
}

/// A panic injected into the bounded tier inside a gap worker costs
/// exactly that candidate: the worker discards its half-extended session,
/// rebuilds one for the next candidate, and every gap property the run
/// still reports genuinely closes the gap. Runs the CLI in a child process
/// because the fault plan is process-global.
#[test]
fn bmc_panic_in_a_worker_leaves_later_verdicts_correct() {
    let design = specmatcher::designs::mal::ex2();
    let fa = design.arch.properties()[0].formula();
    let model = CoverageModel::build(&design.arch, &design.rtl, &design.table)
        .expect("fault-free model builds");
    for (site, jobs) in [("bmc.encode", "1"), ("sat.solve", "2")] {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_specmatcher"))
            .args([
                "check",
                "--design",
                "mal-ex2",
                "--backend",
                "symbolic",
                "--jobs",
                jobs,
            ])
            .env("SPECMATCHER_FAULT", format!("{site}:3:panic"))
            .env("RUST_BACKTRACE", "0")
            .output()
            .expect("binary runs");
        let stdout = String::from_utf8(out.stdout).expect("utf8");
        assert_eq!(
            out.status.code(),
            Some(1),
            "{site}: partial gap report\n{stdout}"
        );
        let unknown: Vec<&str> = stdout.lines().filter(|l| l.contains("unknown:")).collect();
        assert_eq!(
            unknown.len(),
            1,
            "{site}: exactly the faulted candidate is unknown\n{stdout}"
        );
        assert!(
            unknown[0].contains("injected fault: panic"),
            "{site}: {}",
            unknown[0]
        );
        let gap_lines: Vec<&str> = stdout
            .lines()
            .filter_map(|l| l.split_once("   [instance at ").map(|(f, _)| f.trim()))
            .collect();
        assert!(
            gap_lines.len() > 10,
            "{site}: later candidates still settle\n{stdout}"
        );
        let mut table = design.table.clone();
        for text in gap_lines {
            let g = Ltl::parse(text, &mut table).expect("reported formula parses");
            assert!(
                specmatcher::core::closes_gap(&g, fa, &design.rtl, &model).expect("runs"),
                "{site}: reported {text} does not close the gap"
            );
        }
    }
}
