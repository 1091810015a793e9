//! Outside-in tracing of the simulator ⇄ host seam.
//!
//! [`Timed`] wraps a [`Host`] and records one span per `start`, `deliver`,
//! `deliver_many`, `advance_to` and `next_deadline` call. The parent of a
//! host span is the measurement window it ran in, except that `lookup` and
//! `lookupResults` deliveries carry the lookup's event identifier as their
//! request id and name the previous hop's span as parent, so one lookup's
//! path can be followed across nodes. Host spans have no children, so the
//! simulator's self time in a window is the window's wall time minus the
//! host spans inside it.
//!
//! Every span feeds fixed-size aggregates; one span in [`SAMPLE_EVERY`]
//! (and every span of one lookup in [`SAMPLE_EVERY`]) is kept verbatim for
//! `trace.jsonl`.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use p2_netsim::{Envelope, Host};
use p2_overlays::P2Host;
use p2_value::{SimTime, Tuple, Value};
use serde::Json;

use crate::json::object;
use crate::stats::LogHist;

pub const SAMPLE_EVERY: u64 = 64;
/// Upper bound on spans kept for `trace.jsonl`.
const SAMPLE_CAP: usize = 200_000;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Call {
    Start,
    Deliver,
    DeliverMany,
    AdvanceTo,
    NextDeadline,
}

impl Call {
    pub const ALL: [Call; 5] = [
        Call::Start,
        Call::Deliver,
        Call::DeliverMany,
        Call::AdvanceTo,
        Call::NextDeadline,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Call::Start => "host.start",
            Call::Deliver => "host.deliver",
            Call::DeliverMany => "host.deliver_many",
            Call::AdvanceTo => "host.advance_to",
            Call::NextDeadline => "host.next_deadline",
        }
    }
}

/// One recorded span. Times are nanoseconds since the recorder's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u64>,
    pub request: Option<i64>,
}

impl Span {
    pub fn to_json(&self) -> Json {
        object([
            ("id", Json::UInt(self.id)),
            ("name", Json::Str(self.name.to_string())),
            ("start_ns", Json::UInt(self.start_ns)),
            ("end_ns", Json::UInt(self.end_ns)),
            ("parent", self.parent.map_or(Json::Null, Json::UInt)),
            ("request", self.request.map_or(Json::Null, Json::Int)),
        ])
    }
}

/// Aggregate over every span of one call kind.
#[derive(Debug, Clone, Default)]
pub struct CallAgg {
    pub calls: u64,
    pub total_ns: u64,
    pub envelopes: u64,
    pub hist: LogHist,
}

#[derive(Default)]
struct State {
    next_id: u64,
    window: Option<(u64, u64)>,
    window_ns: u64,
    windows: u64,
    calls: [CallAgg; 5],
    /// Lookup event id → span of the hop that last handled it.
    hops: HashMap<i64, u64>,
    sample: Vec<Span>,
}

/// Shared sink of all [`Timed`] hosts of one simulator.
pub struct Recorder {
    on: AtomicBool,
    epoch: Instant,
    state: Mutex<State>,
}

/// What a traced phase recorded.
pub struct Recorded {
    pub windows: u64,
    pub window_ns: u64,
    pub calls: [CallAgg; 5],
    pub sample: Vec<Span>,
}

impl Recorded {
    pub fn call(&self, call: Call) -> &CallAgg {
        &self.calls[call as usize]
    }

    pub fn host_ns(&self) -> u64 {
        self.calls.iter().map(|c| c.total_ns).sum()
    }
}

impl Recorder {
    pub fn new() -> Arc<Recorder> {
        Arc::new(Recorder {
            on: AtomicBool::new(false),
            epoch: Instant::now(),
            state: Mutex::new(State::default()),
        })
    }

    /// Spans are recorded only between `enable(true)` and `enable(false)`;
    /// off, a wrapped call costs one relaxed load.
    pub fn enable(&self, on: bool) {
        // Relaxed: the flag publishes no other data, and every host runs on
        // the thread that flips it.
        self.on.store(on, Ordering::Relaxed);
    }

    fn is_on(&self) -> bool {
        self.on.load(Ordering::Relaxed)
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn state(&self) -> std::sync::MutexGuard<'_, State> {
        self.state
            .lock()
            .expect("recorder is only used from the benchmark's one thread")
    }

    /// Opens the window span that parents the host spans which follow.
    pub fn begin_window(&self) {
        if !self.is_on() {
            return;
        }
        let now = self.now_ns();
        let mut s = self.state();
        s.next_id += 1;
        let id = s.next_id;
        s.window = Some((id, now));
    }

    /// Closes the current window span.
    pub fn end_window(&self) {
        let now = self.now_ns();
        let mut s = self.state();
        if let Some((id, start)) = s.window.take() {
            s.window_ns += now - start;
            s.windows += 1;
            s.sample.push(Span {
                id,
                name: "window",
                start_ns: start,
                end_ns: now,
                parent: None,
                request: None,
            });
        }
    }

    fn record(
        &self,
        call: Call,
        start_ns: u64,
        end_ns: u64,
        request: Option<(i64, bool)>,
        envelopes: usize,
    ) {
        let mut s = self.state();
        s.next_id += 1;
        let id = s.next_id;
        let window = s.window.map(|(w, _)| w);
        let parent = match request {
            Some((event, last_hop)) => {
                let previous = if last_hop {
                    s.hops.remove(&event)
                } else {
                    s.hops.insert(event, id)
                };
                previous.or(window)
            }
            None => window,
        };
        let agg = &mut s.calls[call as usize];
        agg.calls += 1;
        agg.total_ns += end_ns - start_ns;
        agg.envelopes += envelopes as u64;
        agg.hist.record(end_ns - start_ns);
        let keep = match request {
            Some((event, _)) => event.rem_euclid(SAMPLE_EVERY as i64) == 0,
            None => id.is_multiple_of(SAMPLE_EVERY),
        };
        if keep && s.sample.len() < SAMPLE_CAP {
            s.sample.push(Span {
                id,
                name: call.name(),
                start_ns,
                end_ns,
                parent,
                request: request.map(|(event, _)| event),
            });
        }
    }

    /// Takes everything recorded so far, leaving the recorder empty.
    pub fn take(&self) -> Recorded {
        let mut s = self.state();
        let taken = std::mem::take(&mut *s);
        s.next_id = taken.next_id;
        Recorded {
            windows: taken.windows,
            window_ns: taken.window_ns,
            calls: taken.calls,
            sample: taken.sample,
        }
    }
}

/// The lookup event id a tuple carries, and whether it is the final hop.
fn lookup_request(tuple: &Tuple) -> Option<(i64, bool)> {
    let (field, last_hop) = match tuple.name() {
        "lookup" => (3, false),
        "lookupResults" => (4, true),
        _ => return None,
    };
    match tuple.get(field) {
        Ok(Value::Int(event)) => Some((*event, last_hop)),
        _ => None,
    }
}

/// A host whose every simulator-facing call is recorded as a span.
pub struct Timed<H> {
    inner: H,
    rec: Arc<Recorder>,
}

impl<H> Timed<H> {
    pub fn new(inner: H, rec: Arc<Recorder>) -> Timed<H> {
        Timed { inner, rec }
    }

    pub fn inner(&self) -> &H {
        &self.inner
    }

    pub fn inner_mut(&mut self) -> &mut H {
        &mut self.inner
    }
}

/// Runs `body` as one span of `call` when the recorder is on, bare when off.
fn spanned(
    rec: &Recorder,
    call: Call,
    request: Option<(i64, bool)>,
    body: impl FnOnce() -> Vec<Envelope>,
) -> Vec<Envelope> {
    if !rec.is_on() {
        return body();
    }
    let start = rec.now_ns();
    let out = body();
    rec.record(call, start, rec.now_ns(), request, out.len());
    out
}

impl<H: Host> Host for Timed<H> {
    fn start(&mut self, now: SimTime) -> Vec<Envelope> {
        spanned(&self.rec, Call::Start, None, || self.inner.start(now))
    }

    fn deliver(&mut self, tuple: Tuple, now: SimTime) -> Vec<Envelope> {
        let request = lookup_request(&tuple);
        spanned(&self.rec, Call::Deliver, request, || {
            self.inner.deliver(tuple, now)
        })
    }

    fn deliver_many(&mut self, tuples: Vec<Tuple>, now: SimTime) -> Vec<Envelope> {
        spanned(&self.rec, Call::DeliverMany, None, || {
            self.inner.deliver_many(tuples, now)
        })
    }

    fn advance_to(&mut self, now: SimTime) -> Vec<Envelope> {
        spanned(&self.rec, Call::AdvanceTo, None, || {
            self.inner.advance_to(now)
        })
    }

    fn next_deadline(&self) -> Option<SimTime> {
        if !self.rec.is_on() {
            return self.inner.next_deadline();
        }
        let start = self.rec.now_ns();
        let out = self.inner.next_deadline();
        self.rec
            .record(Call::NextDeadline, start, self.rec.now_ns(), None, 0);
        out
    }
}

/// A simulator host that is, or wraps, a [`P2Host`]: lets the bench-owned
/// simulations run on the bare host (end-to-end numbers) or on
/// [`Timed`] (traced numbers) from the same code.
pub trait P2Wrap: Host {
    fn wrap(host: P2Host, rec: &Arc<Recorder>) -> Self;
    fn p2(&self) -> &P2Host;
    fn p2_mut(&mut self) -> &mut P2Host;
}

impl P2Wrap for P2Host {
    fn wrap(host: P2Host, _rec: &Arc<Recorder>) -> P2Host {
        host
    }
    fn p2(&self) -> &P2Host {
        self
    }
    fn p2_mut(&mut self) -> &mut P2Host {
        self
    }
}

impl P2Wrap for Timed<P2Host> {
    fn wrap(host: P2Host, rec: &Arc<Recorder>) -> Timed<P2Host> {
        Timed::new(host, rec.clone())
    }
    fn p2(&self) -> &P2Host {
        self.inner()
    }
    fn p2_mut(&mut self) -> &mut P2Host {
        self.inner_mut()
    }
}
