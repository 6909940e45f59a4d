//! Registry-wide check of the one 0/1 busy signal per transfer resource.
//!
//! For every registered system at the cluster presets that `fig10`
//! (one GH200), `fig11` (NVL2 pairs at 4 and 16 ranks) and perfbench's
//! `sim-observe` (4 ranks) use, the run profile's Chrome trace carries
//! exactly one `occupancy:<resource>` counter track for each resource that
//! ran a transfer or collective interval, and none for any other resource.
//! Each track's toggles are that resource's interval edges in start order,
//! so at a back-to-back boundary the falling edge comes before the rising
//! one. The metrics carry no second copy of the signal. ZeRO-Infinity with
//! its NVMe tier joins the registry's systems: its `nvme` resource carries
//! transfers but has no link-like name.

use std::collections::BTreeMap;

use baselines::standard_registry;
use baselines::zero_infinity::{NvmeTier, ZeroInfinity};
use baselines::OffloadSystem;
use llm_model::workload::Workload;
use llm_model::ModelConfig;
use superchip_sim::telemetry::{parse_json, JsonValue};
use superchip_sim::{presets, single_chip_cluster};
use superchip_sim::{ClusterSpec, TaskKind};
use superoffload::report::RunProfile;
use superoffload_bench::experiments::SEQ;

/// `(cluster, ranks, model, global batch)` per preset.
fn presets() -> Vec<(ClusterSpec, u32, &'static str, u32)> {
    vec![
        (single_chip_cluster(&presets::gh200_chip()), 1, "5B", 8),
        (presets::gh200_nvl2_cluster(2), 4, "5B", 16),
        (presets::gh200_nvl2_cluster(8), 16, "10B", 128),
    ]
}

/// `(ts, busy)` toggles of every `occupancy:` counter track, by track name.
fn busy_tracks(json: &str) -> BTreeMap<String, Vec<(u64, u64)>> {
    let JsonValue::Arr(events) = parse_json(json).unwrap() else {
        panic!("a Chrome trace is a JSON array");
    };
    let mut tracks: BTreeMap<String, Vec<(u64, u64)>> = BTreeMap::new();
    for e in &events {
        let str_of = |k: &str| e.get(k).and_then(JsonValue::as_str);
        let num_of = |v: Option<&JsonValue>| v.and_then(JsonValue::as_f64).unwrap() as u64;
        if str_of("ph") != Some("C") {
            continue;
        }
        let name = str_of("name").unwrap();
        assert!(!name.starts_with("active:"), "a second busy track: {name}");
        if let Some(resource) = name.strip_prefix("occupancy:") {
            let busy = e.get("args").and_then(|a| a.get("busy"));
            tracks
                .entry(resource.to_string())
                .or_default()
                .push((num_of(e.get("ts")), num_of(busy)));
        }
    }
    tracks
}

/// The toggles a resource's busy track must show: every interval's rising
/// and falling edge, in start order.
fn expected_tracks(profile: &RunProfile) -> BTreeMap<String, Vec<(u64, u64)>> {
    let trace = &profile.trace;
    let mut tracks = BTreeMap::new();
    for (name, row) in trace.resource_names().iter().zip(trace.rows()) {
        let moves_data = row
            .iter()
            .any(|iv| matches!(iv.kind, TaskKind::Transfer | TaskKind::Collective));
        if !moves_data {
            continue;
        }
        let edges = row
            .iter()
            .flat_map(|iv| {
                [
                    (iv.start.as_micros_rounded(), 1),
                    (iv.end.as_micros_rounded(), 0),
                ]
            })
            .collect();
        assert!(
            tracks.insert(name.clone(), edges).is_none(),
            "resource names are unique"
        );
    }
    tracks
}

#[test]
fn every_transfer_resource_has_exactly_one_busy_track() {
    let registry = standard_registry();
    assert_eq!(registry.len(), 10, "registry grew; extend this grid");
    let with_nvme = ZeroInfinity {
        nvme: Some(NvmeTier::default()),
    };
    let systems: Vec<(&str, &dyn OffloadSystem)> = registry
        .iter()
        .map(|s| (s.name(), s))
        .chain([("zero-infinity+nvme", &with_nvme as &dyn OffloadSystem)])
        .collect();
    let (mut checked, mut nvme_tracks) = (0, 0);
    for (cluster, ranks, model, batch) in presets() {
        let model_cfg = ModelConfig::by_name(model).expect("Appendix-A size");
        let workload = Workload::new(model_cfg, batch, SEQ);
        for &(name, sys) in &systems {
            let Ok(profile) = sys.simulate_profiled(&cluster, ranks, &workload) else {
                continue;
            };
            let at = format!("{name} at {ranks} rank(s)");
            assert!(
                profile
                    .metrics
                    .tracks()
                    .keys()
                    .all(|t| !t.starts_with("active:")),
                "{at}: the metrics carry a busy track"
            );
            let expected = expected_tracks(&profile);
            let actual = busy_tracks(&profile.chrome_trace_json());
            assert_eq!(
                actual.keys().collect::<Vec<_>>(),
                expected.keys().collect::<Vec<_>>(),
                "{at}: busy tracks are not the transfer resources"
            );
            for (resource, toggles) in &actual {
                assert_eq!(toggles, &expected[resource], "{at}: {resource} toggles");
                // Resources run one task at a time: the signal alternates,
                // and never runs backwards.
                for pair in toggles.windows(2) {
                    assert!(pair[0].0 <= pair[1].0, "{at}: {resource} runs backwards");
                    assert_ne!(pair[0].1, pair[1].1, "{at}: {resource} repeats a level");
                }
            }
            nvme_tracks += usize::from(actual.contains_key("nvme"));
            checked += 1;
        }
    }
    assert!(checked >= 20, "only {checked} feasible runs checked");
    assert!(
        nvme_tracks > 0,
        "no run exercised a non-link transfer resource"
    );
}
