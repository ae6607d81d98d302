//! Engine-level fault-tolerance tests: quarantine round-trips, restart
//! dedup, warm/cold byte-identity, poison hygiene, deadline accounting.

use std::path::PathBuf;
use std::sync::atomic::Ordering;
use treegion_serve::{
    parse_quarantine, Admission, BatchOptions, Engine, EngineConfig, ModuleReply, ModuleRequest,
    Poison,
};

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("tgc-serve-engine-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

fn clean_module(name: &str) -> ModuleRequest {
    ModuleRequest {
        text: format!(
            "module @{name}\n\nfunc @f {{\n  bb0 (weight 100):\n    r0 = movi #1\n    r1 = movi #2\n    r2 = add r0, r1\n    ret r2\n}}\n"
        ),
        poison: Poison::default(),
    }
}

// A serve-layer panic: escapes the pipeline's own fallback containment,
// so the per-request panic envelope and quarantine must handle it.
fn poisoned_module(name: &str) -> ModuleRequest {
    let mut m = clean_module(name);
    m.poison.panic_hard = true;
    m
}

fn engine(cache: Option<PathBuf>, qdir: Option<PathBuf>) -> Engine {
    Engine::open(&EngineConfig {
        cache_path: cache,
        quarantine_dir: qdir,
        default_deadline_ms: None,
        chaos: None,
        cache_shards: 0,
    })
    .unwrap()
}

#[test]
fn warm_hit_is_byte_identical_to_cold_run() {
    let dir = tmpdir("warm");
    let eng = engine(Some(dir.join("cache.tgc")), None);
    let opts = BatchOptions::default();
    let m = clean_module("warmcold");
    let cold = match eng.compile_module(&opts, &m) {
        ModuleReply::Ok { warm, payload } => {
            assert!(!warm);
            payload
        }
        other => panic!("cold run failed: {other:?}"),
    };
    let warm = match eng.compile_module(&opts, &m) {
        ModuleReply::Ok { warm, payload } => {
            assert!(warm, "second request must hit the cache");
            payload
        }
        other => panic!("warm run failed: {other:?}"),
    };
    assert_eq!(cold, warm, "warm payload must be byte-identical");
    // A restarted engine over the same cache file serves the same bytes.
    let eng2 = engine(Some(dir.join("cache.tgc")), None);
    match eng2.compile_module(&opts, &m) {
        ModuleReply::Ok { warm, payload } => {
            assert!(warm, "restart must recover the cache");
            assert_eq!(payload, cold);
        }
        other => panic!("post-restart run failed: {other:?}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn different_config_is_a_different_cache_key() {
    let dir = tmpdir("key");
    let eng = engine(Some(dir.join("cache.tgc")), None);
    let m = clean_module("keyed");
    let opts = BatchOptions::default();
    assert!(matches!(
        eng.compile_module(&opts, &m),
        ModuleReply::Ok { warm: false, .. }
    ));
    let wider = BatchOptions {
        machine: treegion_machine::MachineModel::model_8u(),
        ..BatchOptions::default()
    };
    // Same module, different machine: must be a cold miss, not a stale hit.
    assert!(matches!(
        eng.compile_module(&wider, &m),
        ModuleReply::Ok { warm: false, .. }
    ));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn poisoned_runs_never_touch_the_cache() {
    let dir = tmpdir("poison-cache");
    let eng = engine(Some(dir.join("cache.tgc")), None);
    let opts = BatchOptions::default();
    let mut m = clean_module("seeded");
    // An out-of-range panic region never fires, so the run succeeds —
    // but the request is still poisoned, so the cache must stay cold in
    // both directions (no read, no write).
    m.poison.panic_region = Some(999);
    assert!(matches!(
        eng.compile_module(&opts, &m),
        ModuleReply::Ok { warm: false, .. }
    ));
    assert!(matches!(
        eng.compile_module(&opts, &m),
        ModuleReply::Ok { warm: false, .. }
    ));
    // The unpoisoned request sees an empty cache: one cold run.
    let clean = clean_module("seeded");
    assert!(matches!(
        eng.compile_module(&opts, &clean),
        ModuleReply::Ok { warm: false, .. }
    ));
    assert!(matches!(
        eng.compile_module(&opts, &clean),
        ModuleReply::Ok { warm: true, .. }
    ));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn quarantine_replays_to_the_identical_containment_cause() {
    let qdir = tmpdir("replay");
    let eng = engine(None, Some(qdir.clone()));
    let opts = BatchOptions::default();
    let m = poisoned_module("crasher");
    let (cause1, detail1) = match eng.compile_module(&opts, &m) {
        ModuleReply::Err {
            cause,
            detail,
            quarantined,
        } => {
            assert!(quarantined, "a contained panic must be quarantined");
            (cause, detail)
        }
        other => panic!("poisoned module must fail: {other:?}"),
    };
    assert_eq!(cause1, "panic");
    assert_eq!(eng.quarantined_count(), 1);

    // The ledger file is a valid, replayable repro: module text plus the
    // poison knobs that crashed it.
    let files: Vec<_> = std::fs::read_dir(&qdir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    assert_eq!(files.len(), 1, "{files:?}");
    let file_text = std::fs::read_to_string(&files[0]).unwrap();
    let (text, poison, recorded_cause) = parse_quarantine(&file_text);
    assert_eq!(text, m.text, "module text must survive byte-identically");
    assert_eq!(poison, m.poison);
    assert_eq!(recorded_cause, "panic");
    // The whole file (header included) still parses as tir.
    treegion_ir::parse_module(&file_text).expect("quarantine file must stay parseable");

    // Replaying through a *fresh* engine (empty ledger, so no fast
    // reject) reproduces the identical containment cause and detail.
    let replay_engine = engine(None, Some(tmpdir("replay-fresh")));
    match replay_engine.compile_module(
        &opts,
        &ModuleRequest {
            text: text.clone(),
            poison,
        },
    ) {
        ModuleReply::Err { cause, detail, .. } => {
            assert_eq!(cause, cause1);
            assert_eq!(detail, detail1, "replay must reproduce the event");
        }
        other => panic!("replay must crash the same way: {other:?}"),
    }
    let _ = std::fs::remove_dir_all(&qdir);
}

#[test]
fn quarantine_dedup_holds_across_restarts() {
    let qdir = tmpdir("dedup");
    let opts = BatchOptions::default();
    let m = poisoned_module("repeat");
    {
        let eng = engine(None, Some(qdir.clone()));
        assert!(matches!(
            eng.compile_module(&opts, &m),
            ModuleReply::Err {
                quarantined: true,
                ..
            }
        ));
        assert_eq!(eng.stats.contained.load(Ordering::Relaxed), 1);
        // Resubmission within the same process: fast-rejected, not re-run.
        match eng.compile_module(&opts, &m) {
            ModuleReply::Err { cause, .. } => assert_eq!(cause, "quarantined"),
            other => panic!("{other:?}"),
        }
        assert_eq!(
            eng.stats.contained.load(Ordering::Relaxed),
            1,
            "fast reject must not re-run the module"
        );
        assert_eq!(eng.stats.quarantine_rejects.load(Ordering::Relaxed), 1);
    }
    // A restarted engine replays the ledger from the directory alone.
    let eng = engine(None, Some(qdir.clone()));
    assert_eq!(eng.quarantined_count(), 1);
    match eng.compile_module(&opts, &m) {
        ModuleReply::Err {
            cause, quarantined, ..
        } => {
            assert_eq!(cause, "quarantined");
            assert!(quarantined);
        }
        other => panic!("{other:?}"),
    }
    assert_eq!(
        eng.stats.contained.load(Ordering::Relaxed),
        0,
        "the restarted engine never ran the offender"
    );
    let _ = std::fs::remove_dir_all(&qdir);
}

#[test]
fn ledger_rebuild_skips_hostile_directory_contents() {
    // The quarantine directory is operator-writable: a restart must
    // rebuild the ledger from whatever it finds without panicking,
    // skipping (and counting) everything that is not a ledger file —
    // while still deduplicating the real offender it shares the
    // directory with.
    let qdir = tmpdir("hostile");
    let opts = BatchOptions::default();
    let m = poisoned_module("realoffender");
    {
        let eng = engine(None, Some(qdir.clone()));
        assert!(matches!(
            eng.compile_module(&opts, &m),
            ModuleReply::Err {
                quarantined: true,
                ..
            }
        ));
    }
    // Hostile neighbors: foreign names, empty digest, bad hex, an
    // overlong digest, a stray extension, and a *directory* wearing a
    // perfectly valid ledger name.
    std::fs::write(qdir.join("README.txt"), "ops notes").unwrap();
    std::fs::write(qdir.join("serve-.tir"), "").unwrap();
    std::fs::write(qdir.join("serve-zzzz.tir"), "not hex").unwrap();
    std::fs::write(qdir.join("serve-ffffffffffffffff0.tir"), "too long").unwrap();
    std::fs::write(qdir.join("serve-1234.dat"), "wrong suffix").unwrap();
    std::fs::create_dir(qdir.join("serve-000000000000000a.tir")).unwrap();

    let eng = engine(None, Some(qdir.clone()));
    assert_eq!(
        eng.quarantined_count(),
        1,
        "only the real offender belongs on the ledger"
    );
    assert_eq!(
        eng.stats.ledger_skipped.load(Ordering::Relaxed),
        6,
        "every hostile entry is skipped and counted"
    );
    // The real offender is still fast-rejected without re-running.
    match eng.compile_module(&opts, &m) {
        ModuleReply::Err {
            cause, quarantined, ..
        } => {
            assert_eq!(cause, "quarantined");
            assert!(quarantined);
        }
        other => panic!("{other:?}"),
    }
    assert_eq!(eng.stats.contained.load(Ordering::Relaxed), 0);
    // A clean module still schedules in the hostile neighborhood.
    assert!(matches!(
        eng.compile_module(&opts, &clean_module("fine")),
        ModuleReply::Ok { .. }
    ));
    let _ = std::fs::remove_dir_all(&qdir);
}

#[test]
fn batch_mixes_containment_and_success() {
    let qdir = tmpdir("mixed");
    let eng = engine(None, Some(qdir.clone()));
    let admission = Admission::new(16, 50);
    let batch = vec![
        clean_module("good1"),
        poisoned_module("bad"),
        clean_module("good2"),
    ];
    let replies = eng.process_batch(&admission, &BatchOptions::default(), &batch);
    assert_eq!(replies.len(), 3);
    assert!(
        matches!(replies[0], ModuleReply::Ok { .. }),
        "{:?}",
        replies[0]
    );
    assert!(
        matches!(
            replies[1],
            ModuleReply::Err {
                quarantined: true,
                ..
            }
        ),
        "{:?}",
        replies[1]
    );
    assert!(
        matches!(replies[2], ModuleReply::Ok { .. }),
        "{:?}",
        replies[2]
    );
    assert_eq!(admission.inflight(), 0, "permits must all be released");
    let _ = std::fs::remove_dir_all(&qdir);
}

#[test]
fn shedding_is_deterministic_and_counted() {
    let eng = engine(None, None);
    let admission = Admission::new(2, 75);
    let batch = vec![
        clean_module("s1"),
        clean_module("s2"),
        clean_module("s3"),
        clean_module("s4"),
    ];
    let replies = eng.process_batch(&admission, &BatchOptions::default(), &batch);
    // Slots are taken in batch order: the first two run, the rest shed.
    assert!(matches!(replies[0], ModuleReply::Ok { .. }));
    assert!(matches!(replies[1], ModuleReply::Ok { .. }));
    assert_eq!(replies[2], ModuleReply::Shed { retry_after_ms: 75 });
    assert_eq!(replies[3], ModuleReply::Shed { retry_after_ms: 75 });
    assert_eq!(eng.stats.shed.load(Ordering::Relaxed), 2);
    assert_eq!(admission.inflight(), 0);
    // The next batch admits again — shedding is load, not state.
    let replies = eng.process_batch(&admission, &BatchOptions::default(), &batch[..2]);
    assert!(replies.iter().all(|r| matches!(r, ModuleReply::Ok { .. })));
}

#[test]
fn zero_deadline_is_a_counted_contained_failure() {
    let qdir = tmpdir("deadline");
    let eng = engine(None, Some(qdir.clone()));
    let opts = BatchOptions {
        deadline_ms: Some(0),
        ..BatchOptions::default()
    };
    // A zero soft deadline trips at every fallback rung, so the pipeline
    // reports a terminal failure whose chain names the deadline. The
    // module is answered with a structured error but NOT quarantined:
    // a deadline miss is a property of the request's budget, not of the
    // module, and the same text must stay servable under a roomier one.
    match eng.compile_module(&opts, &clean_module("late")) {
        ModuleReply::Err {
            cause,
            detail,
            quarantined,
        } => {
            assert!(
                cause == "deadline" || detail.contains("deadline"),
                "cause={cause} detail={detail}"
            );
            assert!(!quarantined, "soft-deadline misses must stay retryable");
        }
        other => panic!("zero deadline cannot succeed: {other:?}"),
    }
    assert!(eng.stats.deadline.load(Ordering::Relaxed) >= 1);
    assert_eq!(eng.stats.contained.load(Ordering::Relaxed), 1);
    assert_eq!(eng.quarantined_count(), 0);
    // The identical module under an unlimited budget schedules cleanly.
    assert!(matches!(
        eng.compile_module(&BatchOptions::default(), &clean_module("late")),
        ModuleReply::Ok { .. }
    ));
    let _ = std::fs::remove_dir_all(&qdir);
}

#[test]
fn pipeline_level_panic_recovers_without_quarantine() {
    // `!panic-region` is contained by the pipeline's own fallback chain:
    // the serve layer sees a degraded success, not a crash.
    let eng = engine(None, None);
    let mut m = clean_module("recovering");
    m.poison.panic_region = Some(0);
    match eng.compile_module(&BatchOptions::default(), &m) {
        ModuleReply::Ok { warm, payload } => {
            assert!(!warm);
            assert!(
                !payload.contains("events 0"),
                "degradation visible: {payload}"
            );
        }
        other => panic!("pipeline containment must recover: {other:?}"),
    }
    assert_eq!(eng.quarantined_count(), 0);
    assert_eq!(eng.stats.contained.load(Ordering::Relaxed), 0);
}

#[test]
fn malformed_tir_is_a_bad_request_not_a_quarantine() {
    let qdir = tmpdir("badreq");
    let eng = engine(None, Some(qdir.clone()));
    let m = ModuleRequest {
        text: "this is not tir at all\n".into(),
        poison: Poison::default(),
    };
    match eng.compile_module(&BatchOptions::default(), &m) {
        ModuleReply::Err {
            cause, quarantined, ..
        } => {
            assert_eq!(cause, "bad-request");
            assert!(!quarantined, "client bugs are not service crashes");
        }
        other => panic!("{other:?}"),
    }
    assert_eq!(eng.quarantined_count(), 0);
    assert_eq!(eng.stats.contained.load(Ordering::Relaxed), 0);
    let _ = std::fs::remove_dir_all(&qdir);
}

#[test]
fn fault_seed_poison_never_kills_the_engine_or_warms_the_cache() {
    // `!fault-seed` arms the pipeline-level fault campaign. Those faults
    // are contained by the robust ladder (PR 1/PR 3): most seeds recover
    // to a degraded-but-correct schedule, and a seed that defeats every
    // fallback rung answers a structured error. Either way the engine
    // survives, keeps serving, and the poisoned run never touches the
    // cache in either direction.
    let dir = tmpdir("fault-seed");
    let eng = engine(Some(dir.join("cache.tgc")), Some(dir.join("q")));
    let opts = BatchOptions::default();
    for seed in [1u64, 7, 23, 99, 1234] {
        // Per-seed module text: if a seed ever defeats every fallback
        // rung and gets quarantined, only its own digest is ledgered.
        let mut m = clean_module(&format!("seeded{seed}"));
        m.poison.fault_seed = Some(seed);
        match eng.compile_module(&opts, &m) {
            ModuleReply::Ok { warm, .. } => assert!(!warm, "seed {seed} must not read cache"),
            ModuleReply::Err { cause, .. } => {
                assert_ne!(cause, "bad-request", "seed {seed} input is valid tir")
            }
            shed @ ModuleReply::Shed { .. } => panic!("seed {seed}: {shed:?}"),
        }
    }
    // The engine still schedules clean traffic, and the cache was never
    // warmed by any of the seeded runs (the unpoisoned text is new to
    // every tier: one cold run, then warm).
    let clean = clean_module("seeded1");
    assert!(matches!(
        eng.compile_module(&opts, &clean),
        ModuleReply::Ok { warm: false, .. }
    ));
    assert!(matches!(
        eng.compile_module(&opts, &clean),
        ModuleReply::Ok { warm: true, .. }
    ));
    let _ = std::fs::remove_dir_all(&dir);
}
