//! Load generation: the closed loop over EFNP connections and the open loop
//! straight into `Server::try_submit_with`.  Both record one [`Sample`]
//! per attempted request; nothing is checked while the clock runs.

use crate::workload::{GenRequest, Workload};
use errflow_net::proto::{ErrorCode, RequestFrame, ResponseFrame};
use errflow_net::{NetClient, NetError};
use errflow_nn::Mlp;
use errflow_serve::{Request, RequestStages, Response, ServeError, Server};
use errflow_tensor::norms::Norm;
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// What the server said about one request.
#[derive(Debug, Clone)]
pub struct Served {
    pub rel_bound: f64,
    pub plan_tol: f64,
    pub cache_hit: bool,
    pub batch_size: usize,
    /// Server-side latency, admission to fulfilment.
    pub latency_ns: u64,
    pub stages: RequestStages,
    pub outputs: Vec<Vec<f32>>,
}

impl Served {
    fn from_frame(r: ResponseFrame) -> Self {
        Served {
            rel_bound: r.rel_bound,
            plan_tol: r.plan_tolerance,
            cache_hit: r.cache_hit,
            batch_size: r.batch_size as usize,
            latency_ns: r.latency_ns,
            stages: r.stages,
            outputs: r.outputs,
        }
    }

    fn from_response(r: Response) -> Self {
        Served {
            rel_bound: r.rel_bound,
            plan_tol: r.plan_tolerance,
            cache_hit: r.cache_hit,
            batch_size: r.batch_size,
            latency_ns: r.latency.as_nanos() as u64,
            stages: r.stages,
            outputs: r.outputs,
        }
    }

    /// Server-side stages inside `latency_ns` (ingress and egress happen
    /// outside it, on the io thread).
    pub fn served_stage_ns(&self) -> u64 {
        let s = &self.stages;
        s.batch_wait_ns + s.plan_ns + s.decompress_ns + s.forward_ns + s.respond_ns
    }

    /// Server latency no stage accounts for (negative would mean the
    /// stages overlap, which the server promises never happens).
    pub fn unattributed_ns(&self) -> i64 {
        self.latency_ns as i64 - self.served_stage_ns() as i64
    }
}

/// How one attempt ended.
#[derive(Debug, Clone)]
pub enum Outcome {
    Served(Box<Served>),
    /// Admission control refused it (`QueueFull`).
    Refused,
    /// An error frame, a transport failure or a lost completion.
    Failed(String),
}

/// One attempted request.  Times are nanoseconds from the window start.
#[derive(Debug, Clone)]
pub struct Sample {
    pub stream: u64,
    pub k: u64,
    pub tol: f64,
    pub norm: Norm,
    /// When the request was due (the send time in a closed loop).
    pub due_ns: u64,
    pub sent_ns: u64,
    pub done_ns: u64,
    /// How late the generator sent it: after its due time in the open
    /// loop; after the previous reply in a closed loop, whose next request
    /// is due when the last one returns.
    pub late_ns: u64,
    pub outcome: Outcome,
}

impl Sample {
    /// Latency a client sees: from when the request was due to when its
    /// answer arrived, so a late generator's delay counts.
    pub fn latency_ns(&self) -> u64 {
        self.done_ns.saturating_sub(self.due_ns)
    }

    pub fn served(&self) -> Option<&Served> {
        match &self.outcome {
            Outcome::Served(s) => Some(s),
            _ => None,
        }
    }
}

/// Maps a client-side result to an outcome.
pub fn classify(r: Result<ResponseFrame, NetError>) -> Outcome {
    match r {
        Ok(frame) => Outcome::Served(Box::new(Served::from_frame(frame))),
        Err(NetError::Server(e)) if e.code == ErrorCode::QueueFull => Outcome::Refused,
        Err(e) => Outcome::Failed(e.to_string()),
    }
}

fn ns_since(t0: Instant, t: Instant) -> u64 {
    t.saturating_duration_since(t0).as_nanos() as u64
}

/// One closed-loop client: a connection, its stream's ring of ready
/// request frames, and its position in the stream.
pub struct Conn {
    pub client: NetClient,
    pub stream: u64,
    pub next_k: u64,
    pub ring: Vec<RequestFrame>,
}

fn frame(wl: &Workload, g: GenRequest) -> RequestFrame {
    RequestFrame {
        model_id: 0,
        rel_tolerance: g.tol,
        norm: g.norm,
        layout: wl.layout,
        samples: g.samples,
    }
}

impl Conn {
    /// Connects with an empty ring; [`Conn::load`] fills it.
    pub fn open(addr: std::net::SocketAddr) -> Result<Self, NetError> {
        let client = NetClient::connect(addr)?;
        client.set_read_timeout(Some(Duration::from_secs(60)))?;
        Ok(Conn {
            client,
            stream: 0,
            next_k: 0,
            ring: Vec::new(),
        })
    }

    /// Points the connection at the start of `stream` and generates that
    /// stream's ring.
    pub fn load(&mut self, wl: &Workload, seed: u64, stream: u64) {
        self.stream = stream;
        self.next_k = 0;
        self.ring = wl
            .ring(seed, stream)
            .into_iter()
            .map(|g| frame(wl, g))
            .collect();
    }

    /// Sends one request and waits for it.
    pub fn call(&mut self, wl: &Workload, g: GenRequest) -> Result<ResponseFrame, NetError> {
        self.client.request(&frame(wl, g))
    }
}

/// Runs every connection as a closed-loop client until `until`; requests
/// in flight at the deadline finish and are kept.
pub fn closed_loop(conns: &mut [Conn], t0: Instant, until: Instant) -> Vec<Sample> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .iter_mut()
            .map(|conn| {
                scope.spawn(move || {
                    let mut out = Vec::new();
                    let mut ready = Instant::now();
                    while !conn.ring.is_empty() && Instant::now() < until {
                        let k = conn.next_k % conn.ring.len() as u64;
                        conn.next_k += 1;
                        let f = &conn.ring[k as usize];
                        let (tol, norm) = (f.rel_tolerance, f.norm);
                        let sent = Instant::now();
                        let r = conn.client.request(f);
                        let done = Instant::now();
                        let broken = matches!(r, Err(NetError::Io(_) | NetError::Proto(_)));
                        let outcome = classify(r);
                        if matches!(outcome, Outcome::Refused) {
                            std::thread::sleep(Duration::from_micros(200));
                        }
                        out.push(Sample {
                            stream: conn.stream,
                            k,
                            tol,
                            norm,
                            due_ns: ns_since(t0, sent),
                            sent_ns: ns_since(t0, sent),
                            done_ns: ns_since(t0, done),
                            late_ns: ns_since(ready, sent),
                            outcome,
                        });
                        ready = Instant::now();
                        if broken {
                            break;
                        }
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("closed-loop client panicked"))
            .collect()
    })
}

/// The in-process generator's schedule and its position in its stream.
pub struct BurstGen {
    /// Bursts per second, evenly spaced (an open loop); `None` sends each
    /// burst as soon as the previous one has completed (a closed loop).
    pub rate: Option<f64>,
    /// Requests per burst: a leader and `burst - 1` followers.
    pub burst: usize,
    pub stream: u64,
    pub next_k: u64,
    /// The stream's ring of ready requests ([`Workload::ring`]).
    pub ring: Vec<GenRequest>,
}

/// How long the burst loop waits for stragglers after its last send.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(30);

/// How long a burst's followers wait at most for the server to dequeue
/// the leader: a safety net, since a live worker always dequeues it.
const LEADER_WAIT: Duration = Duration::from_secs(1);

/// Submits a burst of requests every `1 / rate` seconds from `t0`, or
/// with no rate each burst once the previous one has completed, until the
/// next burst would be due at or after `until`; then waits for every
/// accepted request to complete.  A burst's requests are copied from the
/// ring before it is due and share its due time.
///
/// The leader is submitted first and wakes the idle worker; the followers
/// are submitted back to back once the server has dequeued every request
/// accepted so far, the leader included, so they queue behind it and are
/// coalesced.  Submitted all at once, a burst would split wherever the
/// worker's wake-up happened to fall among the submits, and that split
/// moved the latency from run to run.
///
/// In process there is no frontend, so the two frontend stages of each
/// response hold their in-process counterparts: `ingress_ns` the submit
/// call, `egress_ns` the hand-off from the completion hook to this
/// client's collector thread.
pub fn burst_loop(
    server: &Server<Mlp>,
    wl: &Workload,
    gen: &mut BurstGen,
    t0: Instant,
    until: Instant,
) -> Vec<Sample> {
    type Done = (usize, Instant, Result<Response, ServeError>);
    let (tx, rx) = mpsc::channel::<Done>();
    // One tick per completion, for the closed loop to wait on.
    let (done_tx, done_rx) = mpsc::channel::<()>();
    let period = gen.rate.map(|r| Duration::from_secs_f64(1.0 / r));
    std::thread::scope(|scope| {
        let collector = scope.spawn(move || {
            let mut got = Vec::new();
            // Ends when the generator and every hook have dropped their
            // senders, or when nothing completes for DRAIN_TIMEOUT.
            while let Ok((idx, hooked, r)) = rx.recv_timeout(DRAIN_TIMEOUT) {
                got.push((idx, hooked, Instant::now(), r));
                let _ = done_tx.send(());
            }
            got
        });
        let mut samples = Vec::new();
        let mut submit_ns = Vec::new();
        // Every earlier request has completed, so from here the server's
        // dequeued-job count runs in step with `accepted`.
        let dequeued_base = server.stats().batched_jobs;
        let mut accepted = 0u64;
        let mut due = t0;
        loop {
            due = match period {
                Some(p) => due + p,
                None => Instant::now(),
            };
            if due >= until || gen.ring.is_empty() {
                break;
            }
            let burst: Vec<(u64, GenRequest)> = (0..gen.burst)
                .map(|_| {
                    let k = gen.next_k % gen.ring.len() as u64;
                    gen.next_k += 1;
                    (k, gen.ring[k as usize].clone())
                })
                .collect();
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            let burst_base = accepted;
            for (i, (k, g)) in burst.into_iter().enumerate() {
                if i == 1 {
                    let give_up = Instant::now() + LEADER_WAIT;
                    while server.stats().batched_jobs - dequeued_base < accepted
                        && Instant::now() < give_up
                    {
                        std::thread::yield_now();
                    }
                }
                let idx = samples.len();
                let (tol, norm) = (g.tol, g.norm);
                let tx = tx.clone();
                let req = Request {
                    samples: g.samples,
                    rel_tolerance: tol,
                    norm,
                    layout: wl.layout,
                };
                let sent = Instant::now();
                let submitted = server.try_submit_with(req, 0, move |r| {
                    // The collector outlives every hook unless the drain
                    // timed out, and then the result is not wanted.
                    let _ = tx.send((idx, Instant::now(), r));
                });
                submit_ns.push(sent.elapsed().as_nanos() as u64);
                let outcome = match submitted {
                    Ok(()) => {
                        accepted += 1;
                        Outcome::Failed("no completion".into())
                    }
                    Err(ServeError::QueueFull) => Outcome::Refused,
                    Err(e) => Outcome::Failed(e.to_string()),
                };
                samples.push(Sample {
                    stream: gen.stream,
                    k,
                    tol,
                    norm,
                    due_ns: ns_since(t0, due),
                    sent_ns: ns_since(t0, sent),
                    done_ns: ns_since(t0, sent),
                    late_ns: ns_since(due, sent),
                    outcome,
                });
            }
            if period.is_none() {
                for _ in burst_base..accepted {
                    if done_rx.recv_timeout(DRAIN_TIMEOUT).is_err() {
                        break;
                    }
                }
            }
        }
        drop(tx);
        let got = collector.join().expect("burst-loop collector panicked");
        for (idx, hooked, received, r) in got {
            let s = &mut samples[idx];
            s.done_ns = ns_since(t0, hooked);
            s.outcome = match r {
                Ok(resp) => {
                    let mut served = Served::from_response(resp);
                    served.stages.ingress_ns = submit_ns[idx];
                    served.stages.egress_ns = ns_since(hooked, received);
                    Outcome::Served(Box::new(served))
                }
                Err(ServeError::QueueFull) => Outcome::Refused,
                Err(e) => Outcome::Failed(e.to_string()),
            };
        }
        samples
    })
}

/// Failure accounting over one set of samples.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    pub attempted: usize,
    pub served: usize,
    pub refused: usize,
    pub errors: usize,
    /// Served requests whose realized error exceeded their certificate.
    pub violations: usize,
}

impl Tally {
    /// `violated[i]` tells whether sample `i`'s certificate failed.
    pub fn of(samples: &[Sample], violated: &[bool]) -> Self {
        let mut t = Tally {
            attempted: samples.len(),
            ..Tally::default()
        };
        for (i, s) in samples.iter().enumerate() {
            match s.outcome {
                Outcome::Served(_) => {
                    t.served += 1;
                    if violated.get(i).copied().unwrap_or(false) {
                        t.violations += 1;
                    }
                }
                Outcome::Refused => t.refused += 1,
                Outcome::Failed(_) => t.errors += 1,
            }
        }
        t
    }

    /// Requests that got no answer.
    pub fn unanswered(&self) -> usize {
        self.refused + self.errors
    }

    /// (error frames + refusals + certificate violations) ÷ attempted.
    pub fn fail_ratio(&self) -> f64 {
        (self.unanswered() + self.violations) as f64 / self.attempted.max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{find, INPUT_DIM};
    use errflow_net::proto::ErrorFrame;
    use errflow_nn::Activation;
    use errflow_serve::ServeConfig;

    fn sample(outcome: Outcome) -> Sample {
        Sample {
            stream: 0,
            k: 0,
            tol: 1e-3,
            norm: Norm::L2,
            due_ns: 0,
            sent_ns: 0,
            done_ns: 1,
            late_ns: 0,
            outcome,
        }
    }

    fn served() -> Outcome {
        Outcome::Served(Box::new(Served {
            rel_bound: 1e-3,
            plan_tol: 1e-3,
            cache_hit: true,
            batch_size: 1,
            latency_ns: 100,
            stages: RequestStages::default(),
            outputs: vec![vec![0.0; 2]],
        }))
    }

    #[test]
    fn each_failure_kind_counts_once() {
        let error_frame = classify(Err(NetError::Server(ErrorFrame {
            code: ErrorCode::Invalid,
            retryable: false,
            message: "bad".into(),
        })));
        let queue_full = classify(Err(NetError::Server(ErrorFrame::from_serve(
            &ServeError::QueueFull,
        ))));
        assert!(matches!(error_frame, Outcome::Failed(_)));
        assert!(matches!(queue_full, Outcome::Refused));
        let samples = vec![
            sample(served()),
            sample(served()),
            sample(error_frame),
            sample(queue_full),
        ];
        // Sample 1's certificate failed; flags on unanswered samples
        // must not count a second time.
        let t = Tally::of(&samples, &[false, true, true, true]);
        assert_eq!(
            t,
            Tally {
                attempted: 4,
                served: 2,
                refused: 1,
                errors: 1,
                violations: 1,
            }
        );
        assert_eq!(t.fail_ratio(), 0.75);
        assert_eq!(Tally::of(&samples[..1], &[]).fail_ratio(), 0.0);
    }

    #[test]
    fn latency_runs_from_the_due_time() {
        let mut s = sample(served());
        s.due_ns = 1_000;
        s.sent_ns = 4_000; // the generator ran 3 µs late
        s.done_ns = 10_000;
        assert_eq!(s.latency_ns(), 9_000);
    }

    fn small_server() -> Server<Mlp> {
        let model = Mlp::new(
            &[INPUT_DIM, 8, 2],
            Activation::Tanh,
            Activation::Identity,
            3,
            None,
        );
        Server::new(
            model,
            vec![vec![0.1; INPUT_DIM]; 2],
            ServeConfig {
                workers: 1,
                queue_capacity: 4096,
                ..ServeConfig::default()
            },
        )
    }

    #[test]
    fn burst_leader_runs_alone_and_followers_coalesce() {
        let server = small_server();
        let wl = find("burst-open").expect("workload exists");
        // Bursts far enough apart that even an unoptimised build finishes
        // each before the next is due.
        let mut gen = BurstGen {
            rate: Some(2.0),
            burst: 5,
            stream: 0,
            next_k: 0,
            ring: wl.ring(1, 0),
        };
        let t0 = Instant::now();
        let samples = burst_loop(&server, wl, &mut gen, t0, t0 + Duration::from_millis(1700));
        assert_eq!(samples.len(), 15);
        for burst in samples.chunks(5) {
            let sizes: Vec<usize> = burst
                .iter()
                .map(|s| s.served().expect("served").batch_size)
                .collect();
            assert_eq!(sizes, [1, 4, 4, 4, 4]);
            assert!(burst[1..].iter().all(|s| s.sent_ns >= burst[0].sent_ns));
        }

        // Without a rate, each burst goes out once the last one is done.
        gen.rate = None;
        let t0 = Instant::now();
        let samples = burst_loop(&server, wl, &mut gen, t0, t0 + Duration::from_millis(300));
        assert!(samples.len() >= 10 && samples.len() % 5 == 0);
        for pair in samples.chunks(5).collect::<Vec<_>>().windows(2) {
            let last_done = pair[0].iter().map(|s| s.done_ns).max().unwrap_or(0);
            assert!(pair[1][0].due_ns >= last_done);
        }
        assert!(samples
            .iter()
            .all(|s| s.served().expect("served").batch_size <= 4));
    }

    #[test]
    fn late_generator_delay_is_charged_to_latency() {
        let server = small_server();
        let wl = find("burst-open").expect("workload exists");
        // A rate no generator can keep up with: nearly every request is
        // sent after its due time.
        let mut gen = BurstGen {
            rate: Some(3e4),
            burst: 1,
            stream: 0,
            next_k: 0,
            ring: wl.ring(1, 0),
        };
        let t0 = Instant::now();
        let samples = burst_loop(&server, wl, &mut gen, t0, t0 + Duration::from_millis(30));
        assert!(samples.len() > 10);
        let late: Vec<u64> = samples.iter().map(|s| s.late_ns).collect();
        assert!(
            late.iter().max().copied().unwrap_or(0) > 1_000_000,
            "{late:?}"
        );
        for s in &samples {
            assert!(s.served().is_some(), "{:?}", s.outcome);
            assert_eq!(s.late_ns, s.sent_ns - s.due_ns);
            assert_eq!(s.latency_ns(), s.done_ns - s.due_ns);
            assert!(s.latency_ns() >= s.late_ns);
        }

        // Bursts of four share their due time, and the stream's requests
        // run on across them, wrapping round the ring.
        let ring = wl.ring(1, 0);
        let n = ring.len() as u64;
        let mut gen = BurstGen {
            rate: Some(200.0),
            burst: 4,
            stream: 0,
            next_k: 0,
            ring,
        };
        let t0 = Instant::now();
        let samples = burst_loop(&server, wl, &mut gen, t0, t0 + Duration::from_millis(60));
        assert_eq!(samples.len() % 4, 0);
        for (i, burst) in samples.chunks(4).enumerate() {
            assert!(burst.iter().all(|s| s.due_ns == burst[0].due_ns));
            assert!(burst.iter().all(|s| s.served().is_some()));
            let ks: Vec<u64> = burst.iter().map(|s| s.k).collect();
            let want: Vec<u64> = (0..4).map(|j| (4 * i as u64 + j) % n).collect();
            assert_eq!(ks, want);
        }
    }
}
