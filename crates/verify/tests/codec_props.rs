//! Property tests pinning `decode(encode(x)) == x` for the
//! certificate, violation and slack-certificate codecs over
//! synthesized structures — validity is not required for the
//! round-trip invariant, so the generators explore the full field
//! space including integers beyond the `f64`-exact range.

use chronus_net::{FlowId, SwitchId};
use chronus_verify::{
    certificate_from_value, certificate_to_value, slack_from_value, slack_to_value,
    violation_from_value, violation_to_value, BoundaryOrder, BoundaryWitness, Certificate,
    IntervalLoad, LinkBound, SlackCertificate, Violation,
};
use proptest::prelude::*;

fn switches(raw: &[u32]) -> Vec<SwitchId> {
    raw.iter().copied().map(SwitchId).collect()
}

/// Synthesized link bound: (src, dst, capacity, peak, segments).
type RawBound = (u32, u32, u64, u64, Vec<(i64, i64, u64)>);

fn build_certificate(
    makespan: i64,
    bounds: &[RawBound],
    boundaries: &[(i64, bool, Vec<u32>)],
    traced: usize,
    cohorts: u64,
) -> Certificate {
    Certificate {
        makespan,
        link_bounds: bounds
            .iter()
            .map(|(src, dst, capacity, peak, segs)| LinkBound {
                src: SwitchId(*src),
                dst: SwitchId(*dst),
                capacity: *capacity,
                peak: *peak,
                segments: segs
                    .iter()
                    .map(|(start, end, load)| IntervalLoad {
                        start: *start,
                        end: *end,
                        load: *load,
                    })
                    .collect(),
            })
            .collect(),
        boundaries: boundaries
            .iter()
            .map(|(time, acyclic, ids)| BoundaryWitness {
                time: *time,
                order: if *acyclic {
                    BoundaryOrder::Acyclic(switches(ids))
                } else {
                    BoundaryOrder::Cyclic(switches(ids))
                },
            })
            .collect(),
        segments_traced: traced,
        cohorts_covered: cohorts,
    }
}

fn build_violation(
    selector: u8,
    a: u32,
    b: u32,
    x: i64,
    y: i64,
    load: u64,
    flows: &[u32],
) -> Violation {
    match selector % 4 {
        0 => Violation::Congestion {
            src: SwitchId(a),
            dst: SwitchId(b),
            start: x,
            end: y,
            peak: load,
            capacity: load / 2,
            flows: flows.iter().copied().map(FlowId).collect(),
        },
        1 => Violation::ForwardingLoop {
            flow: FlowId(a),
            switch: SwitchId(b),
            emitted: (x, y),
            time: x.saturating_add(1),
        },
        2 => Violation::Blackhole {
            flow: FlowId(a),
            switch: SwitchId(b),
            emitted: (x, y),
            time: y,
        },
        _ => Violation::Undelivered {
            flow: FlowId(a),
            emitted: (x, y),
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    fn certificate_round_trips(
        makespan in i64::MIN..i64::MAX,
        bounds in prop::collection::vec(
            (
                0u32..64,
                0u32..64,
                0u64..u64::MAX,
                0u64..u64::MAX,
                prop::collection::vec(
                    (i64::MIN..0, 0i64..i64::MAX, 0u64..u64::MAX),
                    0..6,
                ),
            ),
            0..6,
        ),
        boundaries in prop::collection::vec(
            (
                i64::MIN..i64::MAX,
                proptest::strategy::any::<bool>(),
                prop::collection::vec(0u32..64, 0..8),
            ),
            0..5,
        ),
        traced in 0usize..1_000_000,
        cohorts in 0u64..u64::MAX,
    ) {
        let cert = build_certificate(makespan, &bounds, &boundaries, traced, cohorts);
        let v = certificate_to_value(&cert);
        prop_assert_eq!(certificate_from_value(&v).unwrap(), cert.clone());
        // And through the strict text parser.
        let text = serde_json::to_string(&v).unwrap();
        let back = certificate_from_value(&serde_json::from_str(&text).unwrap()).unwrap();
        prop_assert_eq!(back, cert);
    }

    fn violation_round_trips(
        selector in 0u8..8,
        a in 0u32..1024,
        b in 0u32..1024,
        x in i64::MIN..i64::MAX,
        y in i64::MIN..i64::MAX,
        load in 0u64..u64::MAX,
        flows in prop::collection::vec(0u32..256, 0..6),
    ) {
        let violation = build_violation(selector, a, b, x, y, load, &flows);
        let text = serde_json::to_string(&violation_to_value(&violation)).unwrap();
        let back = violation_from_value(&serde_json::from_str(&text).unwrap()).unwrap();
        prop_assert_eq!(back, violation);
    }

    fn slack_certificate_round_trips(
        slack_steps in 0i64..1_000,
        checked in 0usize..1_000_000,
        exhausted in proptest::strategy::any::<bool>(),
    ) {
        let slack = SlackCertificate {
            slack_steps,
            schedules_checked: checked,
            budget_exhausted: exhausted,
        };
        let text = serde_json::to_string(&slack_to_value(&slack)).unwrap();
        let back = slack_from_value(&serde_json::from_str(&text).unwrap()).unwrap();
        prop_assert_eq!(back, slack);
    }
}
