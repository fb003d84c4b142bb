//! Property tests on the scenario plane's serde boundary.
//!
//! Three invariants, each under randomized documents:
//!
//! 1. parse → serialize → parse is the identity: any valid
//!    [`ScenarioSpec`] survives its canonical JSON round trip exactly,
//!    every section included;
//! 2. an unknown field anywhere in the document is rejected with a
//!    typed [`RadError::Spec`] naming the field's dotted path;
//! 3. a malformed seed (negative, fractional, or non-numeric) is
//!    rejected with a typed error naming `seed` — never a panic, never
//!    a silent default.
//!
//! Case counts honour `PROPTEST_CASES` (the CI scenario-matrix job
//! deepens them).

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use rad_analysis::streaming::AlertPolicy;
use rad_analysis::{PerplexitySpec, PowerStatsSpec, ThresholdSpec};
use rad_core::RadError;
use rad_middlebox::rpc::RetrySpec;
use rad_middlebox::{FaultProfile, FaultSpec};
use rad_store::wal::{CrashPlan, CrashSite, CrashSpec};
use rad_store::DurableSpec;
use rad_workloads::remote::DisconnectPolicy;
use rad_workloads::scenario::{ScenarioSpec, TransportMode, TransportSpec};
use rad_workloads::TenantSpec;
use serde_json::Value as Json;

/// A probability that prints and parses exactly (thousandths).
fn prob() -> BoxedStrategy<f64> {
    (0u32..=1000).prop_map(|k| f64::from(k) / 1000.0).boxed()
}

/// A fault probability small enough that five of them still sum ≤ 1,
/// which [`FaultPlan::new`] insists on.
fn fault_prob() -> BoxedStrategy<f64> {
    (0u32..=200).prop_map(|k| f64::from(k) / 1000.0).boxed()
}

fn faults() -> BoxedStrategy<FaultSpec> {
    (
        (any::<u64>(), fault_prob(), fault_prob(), fault_prob()),
        (
            fault_prob(),
            fault_prob(),
            1u32..8,
            proptest::option::of(1u64..10_000),
        ),
        proptest::collection::vec((0u64..1_000_000, 1u64..1_000_000), 0..3),
    )
        .prop_map(
            |((seed, drop, dup, corrupt), (reorder, delay, chunks, disc), outages)| FaultSpec {
                seed,
                profile: FaultProfile {
                    drop_prob: drop,
                    duplicate_prob: dup,
                    corrupt_prob: corrupt,
                    reorder_prob: reorder,
                    delay_prob: delay,
                    delay_chunks: chunks,
                    disconnect_after: disc,
                },
                outages,
            },
        )
        .boxed()
}

fn crash() -> BoxedStrategy<CrashSpec> {
    let site = prop_oneof![
        Just(CrashSite::MidRecord),
        Just(CrashSite::PreFsync),
        Just(CrashSite::MidRotation),
        Just(CrashSite::MidCompaction),
        Just(CrashSite::MidRename),
    ];
    prop_oneof![
        (site, 1u64..100).prop_map(|(s, n)| CrashSpec::from_plan(&CrashPlan::at(s, n))),
        (any::<u64>(), prob()).prop_map(|(s, p)| CrashSpec::from_plan(&CrashPlan::seeded(s, p))),
    ]
    .boxed()
}

fn durable() -> BoxedStrategy<DurableSpec> {
    (
        1024u64..1_048_576,
        1u64..128,
        proptest::option::of(1u64..10_000),
        proptest::option::of(crash()),
    )
        .prop_map(
            |(segment_bytes, sync_every, checkpoint_every_ops, crash)| DurableSpec {
                segment_bytes,
                sync_every,
                checkpoint_every_ops,
                crash,
            },
        )
        .boxed()
}

fn detect() -> BoxedStrategy<rad_workloads::DetectSpec> {
    let policy = prop_oneof![
        Just(AlertPolicy::RunEnd),
        (0usize..64).prop_map(|w| AlertPolicy::Crossing { window: w }),
    ];
    let threshold = prop_oneof![
        Just(ThresholdSpec::Calibrated),
        prob().prop_map(|p| ThresholdSpec::Fixed(p * 10.0)),
        (1usize..256).prop_map(ThresholdSpec::Adaptive),
    ];
    let power = (0usize..122, prob(), proptest::option::of(prob())).prop_map(
        |(lane, min_prominence, rms)| PowerStatsSpec {
            lane,
            min_prominence,
            // Absent serializes as the infinite default.
            rms_threshold: rms.unwrap_or(f64::INFINITY),
        },
    );
    ((2usize..5, policy, threshold), power, 1usize..8192)
        .prop_map(
            |((order, policy, threshold), power, chunk)| rad_workloads::DetectSpec {
                perplexity: PerplexitySpec {
                    order,
                    policy,
                    threshold,
                },
                power,
                chunk,
            },
        )
        .boxed()
}

fn retry() -> BoxedStrategy<RetrySpec> {
    (
        (1u32..8, 1u64..5_000, 1u32..5),
        (1u64..10_000, 1u64..60_000, any::<u64>(), 0u32..=1000),
    )
        .prop_map(
            |((attempts, backoff, factor), (timeout, deadline, seed, jitter))| RetrySpec {
                max_attempts: attempts,
                initial_backoff_ms: backoff,
                backoff_factor: factor,
                attempt_timeout_ms: timeout,
                deadline_ms: deadline,
                jitter_seed: seed,
                jitter_per_mille: jitter,
            },
        )
        .boxed()
}

fn transport() -> BoxedStrategy<TransportSpec> {
    let tenant = (
        "[a-z]{1,8}",
        proptest::option::of(1usize..1_000),
        proptest::option::of(retry()),
        prop_oneof![
            Just(DisconnectPolicy::Fail),
            Just(DisconnectPolicy::Degrade)
        ],
    )
        .prop_map(|(tenant, max_commands, retry, on_disconnect)| TenantSpec {
            tenant,
            max_commands,
            retry,
            on_disconnect,
        });
    (
        prop_oneof![Just(TransportMode::Tcp), Just(TransportMode::Unix)],
        proptest::option::of("[a-z0-9:.]{1,16}"),
        proptest::collection::vec(tenant, 1..4),
        proptest::option::of(1usize..256),
    )
        .prop_map(|(mode, addr, tenants, pipeline_depth)| TransportSpec {
            mode,
            addr,
            tenants,
            pipeline_depth,
        })
        .boxed()
}

/// Name, seed, scale, and the two campaign toggles.
fn base() -> BoxedStrategy<(String, u64, f64, bool, bool)> {
    (
        "[a-z][a-z0-9_]{0,15}",
        any::<u64>(),
        (1u32..400).prop_map(|k| f64::from(k) / 100.0),
        any::<bool>(),
        any::<bool>(),
    )
        .boxed()
}

/// A full random scenario. Socket transports exclude the local-only
/// sections (the parser enforces exactly that), so the strategy
/// branches on transport mode first.
fn scenario() -> BoxedStrategy<ScenarioSpec> {
    let in_process = (
        base(),
        proptest::option::of(faults()),
        proptest::option::of(durable()),
        proptest::option::of(detect()),
        proptest::option::of((0u64..1_000_000).prop_map(|s| (s, s + 500_000))),
    )
        .prop_map(
            |((name, seed, scale, fillers, power), faults, durable, detect, window)| ScenarioSpec {
                name,
                seed,
                scale,
                fillers,
                power_experiments: power,
                faults,
                durable,
                detect,
                transport: TransportSpec {
                    mode: TransportMode::InProcess,
                    addr: None,
                    tenants: Vec::new(),
                    pipeline_depth: None,
                },
                replay: window.map(|(start_us, end_us)| rad_workloads::scenario::ReplaySpec {
                    start_us,
                    end_us,
                }),
            },
        );
    let remote = (base(), proptest::option::of(faults()), transport()).prop_map(
        |((name, seed, scale, fillers, power), faults, transport)| ScenarioSpec {
            name,
            seed,
            scale,
            fillers,
            power_experiments: power,
            faults,
            durable: None,
            detect: None,
            transport,
            replay: None,
        },
    );
    prop_oneof![in_process, remote].boxed()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// parse(serialize(spec)) == spec for every valid scenario — the
    /// canonical JSON form loses nothing, including nested fault
    /// profiles, crash schedules, detector stacks, and tenants.
    #[test]
    fn canonical_json_round_trip_is_identity(spec in scenario()) {
        let text = spec.to_json_string();
        let reparsed = ScenarioSpec::from_json_str(&text)
            .map_err(|e| TestCaseError::fail(format!("reparse failed: {e}\n{text}")))?;
        prop_assert_eq!(&spec, &reparsed);
        // And serialization itself is deterministic.
        prop_assert_eq!(text, reparsed.to_json_string());
    }

    /// An unknown field at any nesting level fails parsing with a
    /// typed error whose `field` is the dotted path of the intruder.
    #[test]
    fn unknown_fields_are_rejected_with_their_dotted_path(
        spec in scenario(),
        intruder in "[a-z]{3,10}",
        target in 0usize..3,
    ) {
        let mut value = spec.to_json();
        let root = value.as_object_mut().expect("canonical form is an object");
        // Never collide with a real key.
        let intruder = format!("zz_{intruder}");
        let path = match target {
            0 => {
                root.insert(intruder.clone(), Json::from(1u64));
                intruder
            }
            1 => {
                let campaign = root
                    .get_mut("campaign")
                    .and_then(Json::as_object_mut)
                    .expect("canonical form always has a campaign section");
                campaign.insert(intruder.clone(), Json::from(1u64));
                format!("campaign.{intruder}")
            }
            _ => {
                // Sections parse before the socket-mode cross-checks,
                // so the intruder inside `replay.window` is caught with
                // its exact path even in remote scenarios.
                let mut window = serde_json::Map::new();
                window.insert("start_us".into(), Json::from(0u64));
                window.insert("end_us".into(), Json::from(1u64));
                window.insert(intruder.clone(), Json::from(1u64));
                let mut replay = serde_json::Map::new();
                replay.insert("window".into(), Json::Object(window));
                root.insert("replay".into(), Json::Object(replay));
                format!("replay.window.{intruder}")
            }
        };
        match ScenarioSpec::from_json(&value) {
            Ok(_) => return Err(TestCaseError::fail(format!("intruder {path} accepted"))),
            Err(RadError::Spec { field, .. }) => prop_assert_eq!(field, path),
            Err(other) => return Err(TestCaseError::fail(format!("untyped error: {other}"))),
        }
    }

    /// The wire knobs parse strictly: a zero or ill-typed pipeline
    /// depth, a pipeline depth on an in-process scenario, or a `codec`
    /// field (frames have one encoding, so there is no codec knob) in
    /// either mode is rejected with the knob's dotted path.
    #[test]
    fn wire_knobs_are_rejected_with_their_dotted_path(
        choice in 0usize..5,
        depth in 1u64..1_000,
    ) {
        let mut transport = serde_json::Map::new();
        let path = if choice < 3 {
            let mut tenant = serde_json::Map::new();
            tenant.insert("tenant".into(), Json::from("t"));
            transport.insert("mode".into(), Json::from("tcp"));
            transport.insert("tenants".into(), Json::Array(vec![Json::Object(tenant)]));
            match choice {
                0 => {
                    transport.insert("codec".into(), Json::from("binary"));
                    "transport.codec"
                }
                1 => {
                    transport.insert("pipeline_depth".into(), Json::from(0u64));
                    "transport.pipeline_depth"
                }
                _ => {
                    transport.insert("pipeline_depth".into(), Json::from(depth as f64 + 0.5));
                    "transport.pipeline_depth"
                }
            }
        } else {
            // In-process scenarios have no wire to configure.
            transport.insert("mode".into(), Json::from("in_process"));
            if choice == 3 {
                transport.insert("codec".into(), Json::from("binary"));
                "transport.codec"
            } else {
                transport.insert("pipeline_depth".into(), Json::from(depth));
                "transport.pipeline_depth"
            }
        };
        let mut root = serde_json::Map::new();
        root.insert("name".into(), Json::from("wire_knobs"));
        root.insert("seed".into(), Json::from(7u64));
        root.insert("transport".into(), Json::Object(transport));
        match ScenarioSpec::from_json(&Json::Object(root)) {
            Ok(_) => return Err(TestCaseError::fail(format!("bad {path} accepted"))),
            Err(RadError::Spec { field, .. }) => prop_assert_eq!(field, path),
            Err(other) => return Err(TestCaseError::fail(format!("untyped error: {other}"))),
        }
    }

    /// Bad seeds — negative, fractional, or textual — are typed
    /// `RadError::Spec` rejections naming `seed`.
    #[test]
    fn malformed_seeds_are_rejected_with_typed_errors(
        choice in 0usize..3,
        magnitude in 1i64..1_000_000,
    ) {
        let seed = match choice {
            0 => Json::from(-magnitude),
            1 => Json::from(magnitude as f64 + 0.5),
            _ => Json::from(format!("{magnitude}")),
        };
        let mut root = serde_json::Map::new();
        root.insert("name".into(), Json::from("bad_seed"));
        root.insert("seed".into(), seed);
        match ScenarioSpec::from_json(&Json::Object(root)) {
            Ok(_) => return Err(TestCaseError::fail("malformed seed accepted")),
            Err(RadError::Spec { field, .. }) => prop_assert_eq!(field, "seed"),
            Err(other) => return Err(TestCaseError::fail(format!("untyped error: {other}"))),
        }
    }
}
