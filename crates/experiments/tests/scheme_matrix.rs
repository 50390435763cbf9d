//! Cross-scheme acceptance gates for the newly registered PALP and WIRE
//! schemes, mirroring what the CI `scheme-matrix` job exercises per tag:
//!
//! * every registered scheme tag simulates vips `--quick` to a non-empty
//!   [`SimResult`] (the matrix cell must not silently produce nothing);
//! * WIRE's restricted coset coding never delivers more SET pulses than
//!   Flip-N-Write — row 0 of the codebook *is* FNW's flip choice, so the
//!   lexicographic (sets, changed) minimum can only improve on it;
//! * PALP's partition-parallel slot packing services writes no slower
//!   than single-pulse-train DCW — concurrent slots at a 25 ns partition
//!   stagger strictly undercut DCW's serial `rounds × Tset` train.

use pcm_schemes::SchemeSelect;
use pcm_workloads::WorkloadProfile;
use tetris_experiments::{run_one, RunConfig, QUICK_INSTRUCTIONS};

fn vips_quick(kind: SchemeSelect) -> pcm_memsim::SimResult {
    let profile = WorkloadProfile::by_name("vips").expect("vips profile exists");
    let cfg = RunConfig {
        instructions_per_core: QUICK_INSTRUCTIONS,
        ..RunConfig::default()
    };
    run_one(profile, kind, &cfg)
}

#[test]
fn every_registered_scheme_simulates_vips_quick() {
    for select in SchemeSelect::ALL {
        let kind = select;
        let r = vips_quick(kind);
        assert!(r.mem_writes > 0, "{}: no writes serviced", select.tag());
        assert!(r.mem_reads > 0, "{}: no reads serviced", select.tag());
        assert!(
            r.runtime > pcm_types::Ps::ZERO,
            "{}: zero runtime",
            select.tag()
        );
        assert!(
            r.cell_sets + r.cell_resets > 0,
            "{}: no pulses delivered",
            select.tag()
        );
    }
}

#[test]
fn wire_never_sets_more_cells_than_fnw() {
    let wire = vips_quick(SchemeSelect::Wire);
    let fnw = vips_quick(SchemeSelect::Fnw);
    assert_eq!(wire.mem_writes, fnw.mem_writes, "same write stream");
    assert!(
        wire.cell_sets <= fnw.cell_sets,
        "WIRE delivered {} SET pulses vs FNW's {}",
        wire.cell_sets,
        fnw.cell_sets
    );
}

#[test]
fn palp_services_writes_no_slower_than_dcw() {
    let palp = vips_quick(SchemeSelect::Palp);
    let dcw = vips_quick(SchemeSelect::Dcw);
    assert_eq!(palp.mem_writes, dcw.mem_writes, "same write stream");
    assert!(
        palp.write_latency.mean_ns() <= dcw.write_latency.mean_ns(),
        "PALP mean write latency {:.1} ns vs DCW's {:.1} ns",
        palp.write_latency.mean_ns(),
        dcw.write_latency.mean_ns()
    );
    assert!(
        palp.runtime <= dcw.runtime,
        "PALP runtime {:?} vs DCW's {:?}",
        palp.runtime,
        dcw.runtime
    );
}
