//! The request set is a function of the seed alone.

use kfbench::workload::{Plan, Workload};

#[test]
fn same_seed_gives_same_requests_and_digest() {
    for workload in Workload::ALL {
        let a = Plan::generate(workload, 7, 3.0, None);
        let b = Plan::generate(workload, 7, 3.0, None);
        assert_eq!(a, b, "{}", workload.name());
        assert_eq!(a.digest(), b.digest(), "{}", workload.name());
    }
}

#[test]
fn different_seed_gives_different_digest() {
    for workload in Workload::ALL {
        let a = Plan::generate(workload, 7, 3.0, None);
        let b = Plan::generate(workload, 8, 3.0, None);
        assert_ne!(a.digest(), b.digest(), "{}", workload.name());
    }
}

#[test]
fn open_loop_plans_send_exactly_rate_times_seconds() {
    for workload in [Workload::ChatStream, Workload::DocQaShared] {
        let rate = workload.rate().expect("open loop");
        let plan = Plan::generate(workload, 3, 5.0, None);
        assert_eq!(plan.requests.len(), (rate * 5.0).round() as usize);
        assert!(plan.due_s.windows(2).all(|w| w[0] <= w[1]));
        assert!(plan.due_s.iter().all(|&t| (0.0..5.0).contains(&t)));
    }
}
