//! The paper's artefacts, pinned: the sha256 of every artefact's text at a
//! small budget. The exact tier folds tasks in task order and the
//! discrete-event simulator is seeded, so each digest holds on any core
//! count. A change that moves one is a change of behaviour.
//!
//! The digests were taken from the stdout of the per-artefact binaries
//! this table replaced, at the same budgets, with the image line cut.

use lumen_bench::artefacts::ALL;
use lumen_core::sha256;

/// The one artefact without a pin: it prints wall-clock times.
const UNPINNED: &str = "fig2_threads";

/// `(name, budget, sha256 of the text)`.
const PINS: &[(&str, u64, &str)] = &[
    ("table1_properties", 0, "822ba5ccbb762b79334c3f88bd4a9c8512771dc1c0038dea2fb65b6080763b23"),
    ("fig2_speedup", 0, "84d07abb4b6d8f7b891b8f80e8c19564fd0ef715518a9afe044d150c013b35fa"),
    ("fig3_banana", 2_000, "04ad11f60893dc36a26840ece84a9b047d34010d9b3e820d23923d97b43ea0bc"),
    ("fig4_head_model", 2_000, "1f3caa6756391707329b2cbef198ef6cf070b8f77b6f0797d784505e7e5d765c"),
    ("table2_hetero", 0, "3a1df294569fecf3d15357e75dd43f7ab7f1734e057b8d8bcfb00bc9cfe98d70"),
    ("ablation_csf", 2_000, "b11e8b9fed0b4eb6a95cc8ee9ad0a3b349cc5979c45629c52e904f67dffedf14"),
    ("ablation_fresnel", 1_000, "cfebe53f220642b8add8613fbc2ca3f2a092308d6b8c969d22d7959d8a646b95"),
    ("ablation_scheduler", 0, "a78845d9422626d90e1f943d7ce08b2fcc23eef99402de7e803aa01010465560"),
    (
        "convergence_study",
        4_096,
        "3d9a738c8d456b93b36df398a1b744358e6e6e592116ee191a8ebe6fc1fffba0",
    ),
    (
        "partial_pathlengths",
        2_000,
        "e2353bda7c8a2043f832adf5e6ee5a6593028ffcfc6884547c901210f5fbc245",
    ),
    (
        "penetration_vs_separation",
        1_000,
        "52f69237faf07972e1615de9de1f1b8404693941a8aa00219484258462f9f5e7",
    ),
    (
        "reflectance_profile",
        20_000,
        "b98bfcd697f15c3aac6c41dc3cdccbd590a5586b4656bbbea43363de4c88ceb9",
    ),
    ("source_footprint", 1_000, "a09541c1618d5a9e21483e67df5850b687437c446bbe94cb951ad6db359d21c9"),
];

#[test]
fn every_artefact_but_the_wall_clock_one_has_exactly_one_pin() {
    for artefact in ALL {
        let rows = PINS.iter().filter(|(name, _, _)| *name == artefact.name).count();
        let expected = usize::from(artefact.name != UNPINNED);
        assert_eq!(rows, expected, "{}: {rows} pins", artefact.name);
    }
    for (name, _, _) in PINS {
        assert!(ALL.iter().any(|a| a.name == *name), "pin for unknown artefact {name}");
    }
}

#[test]
fn artefact_text_matches_its_pin() {
    let moved: Vec<String> = PINS
        .iter()
        .filter_map(|&(name, budget, pinned)| {
            let artefact = ALL.iter().find(|a| a.name == name)?;
            let digest = sha256::hex((artefact.run)(budget).text.as_bytes());
            (digest != pinned).then(|| format!("{name} {budget}: {digest}, pinned {pinned}"))
        })
        .collect();
    assert!(moved.is_empty(), "artefact text moved:\n{}", moved.join("\n"));
}
