//! The metrics inventory in `docs/OBSERVABILITY.md` must list exactly the
//! families `GET /metrics` emits, each with the family's `# TYPE`.

use std::collections::BTreeMap;

use mani_engine::EngineConfig;
use mani_service::{BuildInfo, Service, TransportStats};

const OBSERVABILITY_MD: &str = include_str!("../../../docs/OBSERVABILITY.md");

/// `family → type` from the inventory table: rows whose first cell is a
/// backticked `mani_*` name (label sets such as `{endpoint=...}` dropped).
fn documented() -> BTreeMap<String, String> {
    let mut families = BTreeMap::new();
    for row in OBSERVABILITY_MD.lines() {
        let Some(rest) = row.strip_prefix("| `mani_") else {
            continue;
        };
        let cells: Vec<&str> = rest.split('|').map(str::trim).collect();
        let name = format!("mani_{}", cells[0].split(['`', '{']).next().unwrap());
        let previous = families.insert(name.clone(), cells[1].to_string());
        assert!(previous.is_none(), "`{name}` is listed twice");
    }
    families
}

/// `family → type` from the `# TYPE` lines of a live exposition.
fn exposed() -> BTreeMap<String, String> {
    let service = Service::new(EngineConfig::default(), 0);
    let build = BuildInfo {
        name: "mani-doc",
        version: "0.0.0",
        git: None,
        profile: "test",
        features: &[],
    };
    service
        .metrics_exposition(&build, &TransportStats::default())
        .lines()
        .filter_map(|line| line.strip_prefix("# TYPE "))
        .map(|rest| {
            let (name, kind) = rest.split_once(' ').expect("`# TYPE <name> <type>`");
            (name.to_string(), kind.to_string())
        })
        .collect()
}

#[test]
fn observability_inventory_matches_the_exposition() {
    assert_eq!(
        documented(),
        exposed(),
        "docs/OBSERVABILITY.md metrics table (left) drifted from GET /metrics (right)"
    );
}
