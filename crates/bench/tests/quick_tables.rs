//! The table harness itself is under test: the quick-scale version of every
//! paper table must generate (each run is internally validated against its
//! sequential reference) and contain the expected rows and columns.

use vopp_bench::{sweep_table, Scale};

#[test]
fn all_nine_tables_generate_at_quick_scale() {
    let scale = Scale::quick();
    let tables: Vec<_> = (1..=9)
        .map(|n| sweep_table(&format!("table{n}"), &scale))
        .collect();
    assert_eq!(tables.len(), 9);
    // Paper order and shape.
    assert!(tables[0].title.starts_with("Table 1"));
    assert!(tables[8].title.starts_with("Table 9"));
    for t in &tables {
        assert!(!t.columns.is_empty());
        assert!(!t.rows.is_empty());
        for (label, cells) in &t.rows {
            assert!(!label.is_empty());
            assert_eq!(cells.len(), t.columns.len(), "{}", t.title);
        }
    }
    // Statistics tables carry the paper's row set.
    let t1 = &tables[0];
    let labels: Vec<&str> = t1.rows.iter().map(|(l, _)| l.as_str()).collect();
    for want in [
        "Time (Sec.)",
        "Barriers",
        "Acquires",
        "Data (MByte)",
        "Num. Msg",
        "Diff Requests",
        "Barrier Time (usec.)",
        "Rexmit",
    ] {
        assert!(labels.contains(&want), "Table 1 must have row {want}");
    }
    // Table 8 additionally reports acquire time.
    assert!(tables[7]
        .rows
        .iter()
        .any(|(l, _)| l == "Acquire Time (usec.)"));
    // Speedup tables are keyed by system.
    for idx in [2, 4, 6, 8] {
        let t = &tables[idx];
        assert!(
            t.rows.iter().any(|(l, _)| l.contains("LRC_d")),
            "{}",
            t.title
        );
        assert!(
            t.rows.iter().any(|(l, _)| l.contains("VC_sd")),
            "{}",
            t.title
        );
    }
    assert!(tables[8].rows.iter().any(|(l, _)| l == "MPI"));
}

#[test]
fn tables_render_and_serialize() {
    let t = sweep_table("table2", &Scale::quick());
    let text = t.to_string();
    assert!(text.contains("VC_sd"));
    let json = t.to_value().to_json();
    assert!(json.contains("\"title\""));
}

/// Tracing a quick table run end to end: the per-run artifacts exist, the
/// Perfetto export parses as JSON, and the conformance checker (which runs
/// inside the table generation and panics on violations) stays silent for
/// every protocol exercised by Table 1 (LRC_d, VC_d, VC_sd).
#[test]
fn traced_quick_table1_passes_conformance() {
    let dir = std::env::temp_dir().join(format!("vopp-trace-quick-{}", std::process::id()));
    let scale = Scale {
        quick: true,
        trace_dir: Some(dir.clone()),
        ..Scale::default()
    };
    let t = sweep_table("table1", &scale);
    assert!(t.title.starts_with("Table 1"));
    let np = scale.stats_procs();
    for stem in [
        format!("is_trad_lrc_d_{np}p"),
        format!("is_vopp_vc_d_{np}p"),
        format!("is_vopp_vc_sd_{np}p"),
    ] {
        for suffix in ["events.json", "perfetto.json", "report.txt"] {
            let path = dir.join(format!("{stem}.{suffix}"));
            let data = std::fs::read_to_string(&path)
                .unwrap_or_else(|e| panic!("missing artifact {}: {e}", path.display()));
            assert!(!data.is_empty(), "{} is empty", path.display());
            if suffix.ends_with(".json") {
                vopp_trace::json::Value::parse(&data)
                    .unwrap_or_else(|e| panic!("{} is not valid JSON: {e}", path.display()));
            }
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}
