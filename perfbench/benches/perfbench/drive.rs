//! The timed phase: a closed loop over keep-alive connections, one request
//! in flight per connection, every answer checked.

use crate::client::Client;
use crate::inputs::{churn_new, cold_set, Inputs, Shape, Workload};
use locality_rand::{Prng, SplitMix64};
use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Client connections (and threads) of the timed phase. At most the
/// server's worker count: the edge is thread-per-connection, so another
/// socket would measure starvation instead of the program.
pub const CONNECTIONS: usize = 2;

/// A reply whose expected body is only known after the run (churn's new
/// requests, every cold answer).
pub struct Pending {
    pub op: u64,
    pub shape: Shape,
    pub body: Vec<u8>,
}

/// What one connection saw.
#[derive(Default)]
pub struct Outcome {
    pub latencies_us: Vec<f64>,
    /// When each op completed, in seconds since the phase started.
    pub done_s: Vec<f64>,
    pub ops: u64,
    /// Ops with a non-200 reply, an `"ok": false` answer or a body that
    /// differs from the expected one.
    pub failed_ops: Vec<u64>,
    pub http_requests: u64,
    pub solves: u64,
    pub pending: Vec<Pending>,
    pub errors: Vec<String>,
}

impl Outcome {
    fn merge(&mut self, other: Outcome) {
        self.latencies_us.extend(other.latencies_us);
        self.done_s.extend(other.done_s);
        self.ops += other.ops;
        self.failed_ops.extend(other.failed_ops);
        self.http_requests += other.http_requests;
        self.solves += other.solves;
        self.pending.extend(other.pending);
        self.errors.extend(other.errors);
    }
}

/// Shared state of one timed phase.
pub struct Plan<'a> {
    pub inputs: &'a Inputs,
    /// Expected summary body per warm shape name.
    pub expected: &'a HashMap<String, Vec<u8>>,
    /// Next cold graph / churn fresh-seed index, shared so that connections
    /// never repeat each other's inputs.
    pub next: AtomicU64,
    /// Op ids are unique across connections.
    pub op_ids: AtomicU64,
}

/// Drive `connections` closed-loop clients until `duration` has passed.
/// Returns the merged outcome and the measured wall time.
pub fn run(
    plan: &Plan<'_>,
    addr: SocketAddr,
    seed: u64,
    connections: usize,
    duration: Duration,
) -> (Outcome, f64) {
    let start = Instant::now();
    let deadline = start + duration;
    let outcomes: Vec<Outcome> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..connections)
            .map(|c| {
                let rng = SplitMix64::new(seed ^ (0x9e37_79b9 * (c as u64 + 1)));
                scope.spawn(move || drive_one(plan, addr, rng, start, deadline))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client threads report errors, not panics"))
            .collect()
    });
    let elapsed = start.elapsed().as_secs_f64();
    let mut merged = Outcome::default();
    for o in outcomes {
        merged.merge(o);
    }
    (merged, elapsed)
}

/// The next op of `workload`: the request sets it sends, in order.
pub fn next_op(plan: &Plan<'_>, rng: &mut SplitMix64) -> Option<Vec<Shape>> {
    let inputs = plan.inputs;
    let shapes = &inputs.warm_shapes;
    match inputs.workload {
        Workload::Warm => {
            // 1 in 4 on graph 1 (the last two shapes), 3 in 4 on graph 0.
            let (g0, g1) = shapes.split_at(shapes.len() - 2);
            let pool = if rng.next_u64() % 4 == 0 { g1 } else { g0 };
            Some(vec![
                pool[(rng.next_u64() % pool.len() as u64) as usize].clone()
            ])
        }
        Workload::Churn => {
            if rng.next_u64() % 4 == 0 {
                let k = plan.next.fetch_add(1, Ordering::Relaxed);
                Some(vec![churn_new(inputs.request_seed, k)])
            } else {
                Some(vec![shapes
                    [(rng.next_u64() % shapes.len() as u64) as usize]
                    .clone()])
            }
        }
        Workload::Cold => {
            let g = plan.next.fetch_add(1, Ordering::Relaxed) as usize;
            (g < inputs.graph_seeds.len())
                .then(|| cold_set(g, inputs.request_seed.wrapping_add(g as u64)))
        }
    }
}

fn drive_one(
    plan: &Plan<'_>,
    addr: SocketAddr,
    mut rng: SplitMix64,
    start: Instant,
    deadline: Instant,
) -> Outcome {
    let mut out = Outcome::default();
    let mut client = match Client::connect(addr) {
        Ok(c) => c,
        Err(e) => {
            out.errors.push(format!("connect: {e}"));
            return out;
        }
    };
    while Instant::now() < deadline {
        let Some(op) = next_op(plan, &mut rng) else {
            out.errors
                .push("the cold graph pool ran out before the deadline".to_string());
            break;
        };
        let id = plan.op_ids.fetch_add(1, Ordering::Relaxed);
        let started = Instant::now();
        let mut ok = true;
        for shape in op {
            out.http_requests += 1;
            out.solves += shape.requests.len() as u64;
            let reply = match client.roundtrip(&shape.frame) {
                Ok(r) => r,
                Err(e) => {
                    out.errors.push(format!("{}: {e}", shape.name));
                    out.failed_ops.push(id);
                    return out;
                }
            };
            if reply.status != 200 || answer_failed(reply.body) {
                ok = false;
                continue;
            }
            match plan.expected.get(&shape.name) {
                Some(want) => ok &= reply.body == want.as_slice(),
                None => out.pending.push(Pending {
                    op: id,
                    body: reply.body.to_vec(),
                    shape,
                }),
            }
        }
        out.latencies_us.push(started.elapsed().as_secs_f64() * 1e6);
        out.done_s.push(start.elapsed().as_secs_f64());
        out.ops += 1;
        if !ok {
            out.failed_ops.push(id);
        }
    }
    out
}

/// Whether a summary body (or any answer of a batch) reports `"ok": false`.
pub fn answer_failed(body: &[u8]) -> bool {
    body.windows(13).any(|w| w == b"\"ok\": false,")
}
