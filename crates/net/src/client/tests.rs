use super::*;

#[test]
fn closed_loop_respects_window() {
    let mut g = RequestGen::new(
        1,
        80,
        64,
        Workload::Closed {
            outstanding: 2,
            think_cycles: 0,
        },
        7,
    );
    let tags = g.poll(Cycle(0));
    assert_eq!(tags.len(), 2);
    assert!(g.poll(Cycle(1)).is_empty(), "window full");
    g.complete(tags[0], Cycle(10), false);
    assert_eq!(g.poll(Cycle(10)).len(), 1);
    assert_eq!(g.stats.completed, 1);
    assert_eq!(g.stats.rtt.max(), 10);
}

#[test]
fn closed_loop_think_time_delays_next() {
    let mut g = RequestGen::new(
        1,
        80,
        64,
        Workload::Closed {
            outstanding: 1,
            think_cycles: 50,
        },
        7,
    );
    let t = g.poll(Cycle(0));
    g.complete(t[0], Cycle(5), false);
    assert!(g.poll(Cycle(30)).is_empty());
    assert_eq!(g.poll(Cycle(55)).len(), 1);
}

#[test]
fn open_loop_rate_is_roughly_right() {
    let mut g = RequestGen::new(
        1,
        80,
        64,
        Workload::Open {
            mean_interarrival: 100.0,
        },
        42,
    );
    let mut issued = 0;
    for t in 0..100_000u64 {
        issued += g.poll(Cycle(t)).len();
    }
    // ~1000 expected; accept a wide band.
    assert!((800..1200).contains(&issued), "issued {issued}");
}

#[test]
fn open_loop_does_not_wait_for_responses() {
    let mut g = RequestGen::new(
        1,
        80,
        64,
        Workload::Open {
            mean_interarrival: 10.0,
        },
        3,
    );
    let mut total = 0;
    for t in 0..1000u64 {
        total += g.poll(Cycle(t)).len();
    }
    assert!(total > 50, "issued {total} without any completions");
}

#[test]
fn max_requests_bounds_and_done() {
    let mut g = RequestGen::new(
        1,
        80,
        64,
        Workload::Closed {
            outstanding: 4,
            think_cycles: 0,
        },
        9,
    )
    .with_max_requests(3);
    let tags = g.poll(Cycle(0));
    assert_eq!(tags.len(), 3);
    assert!(!g.done());
    for t in tags {
        g.complete(t, Cycle(9), false);
    }
    assert!(g.done());
    assert!(g.poll(Cycle(20)).is_empty());
}

#[test]
fn unknown_tag_ignored() {
    let mut g = RequestGen::new(
        1,
        80,
        64,
        Workload::Closed {
            outstanding: 1,
            think_cycles: 0,
        },
        1,
    );
    g.complete(999, Cycle(5), false);
    assert_eq!(g.stats.completed, 0);
}

fn retry_gen(max_retries: u32) -> RequestGen {
    RequestGen::new(
        1,
        80,
        64,
        Workload::Closed {
            outstanding: 1,
            think_cycles: 0,
        },
        5,
    )
    .with_retry(RetryPolicy {
        max_retries,
        base_backoff: 100,
        max_backoff: 1_000,
        jitter: 0,
    })
}

#[test]
fn error_schedules_backoff_retry_of_same_tag() {
    let mut g = retry_gen(2);
    let t = g.poll(Cycle(0));
    assert_eq!(t.len(), 1);
    g.complete(t[0], Cycle(10), true);
    // Not completed: the request is pending its retry.
    assert_eq!(g.stats.completed, 0);
    assert_eq!(g.stats.retries, 1);
    assert_eq!(g.in_flight(), 1);
    assert!(g.poll(Cycle(50)).is_empty(), "backoff not elapsed");
    let r = g.poll(Cycle(110));
    assert_eq!(r, t, "the same tag is reissued");
    // Success on the retry completes it, RTT from first send.
    g.complete(t[0], Cycle(150), false);
    assert_eq!(g.stats.completed, 1);
    assert_eq!(g.stats.errors, 0);
    assert_eq!(g.stats.rtt.max(), 150);
}

#[test]
fn backoff_grows_exponentially_then_gives_up() {
    let mut g = retry_gen(2);
    let t = g.poll(Cycle(0))[0];
    g.complete(t, Cycle(0), true); // retry 1 due at 100
    assert_eq!(g.poll(Cycle(100)), vec![t]);
    g.complete(t, Cycle(100), true); // retry 2 due at 100 + 200
    assert!(g.poll(Cycle(250)).is_empty());
    assert_eq!(g.poll(Cycle(300)), vec![t]);
    g.complete(t, Cycle(300), true); // retries exhausted
    assert_eq!(g.stats.gave_up, 1);
    assert_eq!(g.stats.errors, 1);
    assert_eq!(g.stats.completed, 1);
    assert_eq!(g.in_flight(), 0);
}

#[test]
fn breaker_opens_after_threshold_and_probes_half_open() {
    let mut g = RequestGen::new(
        1,
        80,
        64,
        Workload::Closed {
            outstanding: 1,
            think_cycles: 0,
        },
        5,
    )
    .with_breaker(BreakerConfig {
        failure_threshold: 2,
        cooldown: 1_000,
    });
    let mut now = 0u64;
    for _ in 0..2 {
        let t = g.poll(Cycle(now));
        assert_eq!(t.len(), 1);
        g.complete(t[0], Cycle(now + 5), true);
        now += 10;
    }
    assert_eq!(g.breaker_state(), Some(BreakerState::Open));
    assert!(g.poll(Cycle(now)).is_empty(), "open breaker blocks");
    // Cooldown elapses: exactly one probe allowed.
    now += 1_000;
    let probe = g.poll(Cycle(now));
    assert_eq!(probe.len(), 1);
    assert_eq!(g.breaker_state(), Some(BreakerState::HalfOpen));
    assert!(g.poll(Cycle(now)).is_empty(), "one probe at a time");
    // Probe succeeds: closed again, traffic resumes.
    g.complete(probe[0], Cycle(now + 5), false);
    assert_eq!(g.breaker_state(), Some(BreakerState::Closed));
    assert_eq!(g.poll(Cycle(now + 10)).len(), 1);
}

#[test]
fn failed_probe_reopens_breaker() {
    let mut g = RequestGen::new(
        1,
        80,
        64,
        Workload::Closed {
            outstanding: 1,
            think_cycles: 0,
        },
        5,
    )
    .with_breaker(BreakerConfig {
        failure_threshold: 1,
        cooldown: 100,
    });
    let t = g.poll(Cycle(0));
    g.complete(t[0], Cycle(1), true);
    assert_eq!(g.breaker_state(), Some(BreakerState::Open));
    let probe = g.poll(Cycle(101));
    assert_eq!(probe.len(), 1);
    g.complete(probe[0], Cycle(105), true);
    assert_eq!(g.breaker_state(), Some(BreakerState::Open));
    assert!(g.poll(Cycle(150)).is_empty());
}

#[test]
fn open_loop_sheds_arrivals_while_open() {
    let mut g = RequestGen::new(
        1,
        80,
        64,
        Workload::Open {
            mean_interarrival: 10.0,
        },
        3,
    )
    .with_breaker(BreakerConfig {
        failure_threshold: 1,
        cooldown: 100_000,
    });
    let t = g.poll(Cycle(0));
    assert!(!t.is_empty());
    g.complete(t[0], Cycle(1), true);
    let mut issued = 0;
    for c in 2..2_000u64 {
        issued += g.poll(Cycle(c)).len();
    }
    assert_eq!(issued, 0, "open breaker issues nothing");
    assert!(g.stats.shed > 100, "arrivals kept coming and were shed");
}

#[test]
fn retries_and_breaker_stay_deterministic() {
    let run = || {
        let mut g = RequestGen::new(
            1,
            80,
            64,
            Workload::Open {
                mean_interarrival: 50.0,
            },
            77,
        )
        .with_retry(RetryPolicy::default())
        .with_breaker(BreakerConfig::default());
        let mut trace = Vec::new();
        for c in 0..50_000u64 {
            for tag in g.poll(Cycle(c)) {
                trace.push((c, tag));
                // Every 3rd request errors on arrival + 10.
                let fail = tag % 3 == 0;
                g.complete(tag, Cycle(c + 10), fail);
            }
        }
        (trace, g.stats.retries, g.stats.shed)
    };
    assert_eq!(run(), run());
}

#[test]
fn error_responses_counted() {
    let mut g = RequestGen::new(
        1,
        80,
        64,
        Workload::Closed {
            outstanding: 1,
            think_cycles: 0,
        },
        1,
    );
    let t = g.poll(Cycle(0));
    g.complete(t[0], Cycle(3), true);
    assert_eq!(g.stats.errors, 1);
    assert_eq!(g.stats.completed, 1);
}
