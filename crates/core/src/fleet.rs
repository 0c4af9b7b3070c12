//! Real-fleet runtime: wire codecs, the audit RPC, the wall-clock node
//! driver, and the querier's remote-peer seam (ISSUE 9).
//!
//! Inside the simulator, [`SnoopyWire`] packets travel as in-process values
//! and the querier audits nodes through shared [`SnoopyHandle`]s.  Fleet
//! mode runs each node in its own OS process behind a
//! [`Transport`], so both surfaces need a
//! byte encoding:
//!
//! * **Wire frames** — a tag byte ([`TAG_WIRE`]) followed by the
//!   [`SnoopyWire`] packet, encoded with the same stable big-endian codecs
//!   the log uses (`snp_log::codec`), so what crosses the socket is exactly
//!   what the hash chains and signatures already commit to.
//! * **Audit RPC** — the five read-only surfaces the querier exercises on a
//!   node handle (`retrieve_anchored`, `anchor_epoch`,
//!   `log_total_appended`, `authenticators_from`,
//!   `maintainer_notifications`) become a request/response protocol
//!   ([`TAG_AUDIT_REQ`]/[`TAG_AUDIT_RESP`]).  [`PeerLink::Remote`] speaks
//!   it; [`PeerLink::Local`] short-circuits to the in-process handle, so
//!   simulator deployments are byte-for-byte unchanged.
//!
//! The driver ([`FleetNode`]) runs the *same* [`SnoopyNode`] callbacks the
//! simulator runs, against wall-clock time: arrived frames become
//! `on_message`, a timer heap fires `on_timer`, and drained context outputs
//! go back out through the transport.  What stays deterministic: the node's
//! protocol logic, log encoding, signatures and replay are all unchanged —
//! only event *timing* comes from the real world.

use crate::node::{AnchorLink, RetrieveResponse, SnoopyHandle, SnoopyNode};
use crate::wire::SnoopyWire;
use snp_crypto::keys::NodeId;
use snp_datalog::snapshot::{SnapshotError, SnapshotReader, SnapshotWriter};
use snp_datalog::SmInput;
use snp_graph::vertex::Timestamp;
use snp_log::codec;
use snp_log::Authenticator;
use snp_sim::node::Context;
use snp_sim::transport::{Transport, TransportError};
use snp_sim::{SimNode, SimTime, TimerId};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Frame tag: a [`SnoopyWire`] protocol packet.
pub const TAG_WIRE: u8 = 0x01;
/// Frame tag: an [`AuditRequest`].
pub const TAG_AUDIT_REQ: u8 = 0x02;
/// Frame tag: an [`AuditResponse`].
pub const TAG_AUDIT_RESP: u8 = 0x03;

// ---------------------------------------------------------------------------
// Wire codec
// ---------------------------------------------------------------------------

fn write_sm_input(w: &mut SnapshotWriter, input: &SmInput) {
    match input {
        SmInput::InsertBase(t) => {
            w.u8(0);
            w.tuple(t);
        }
        SmInput::DeleteBase(t) => {
            w.u8(1);
            w.tuple(t);
        }
        SmInput::Receive { from, delta } => {
            w.u8(2);
            w.node(*from);
            codec::write_tuple_delta(w, delta);
        }
    }
}

fn read_sm_input(r: &mut SnapshotReader) -> Result<SmInput, SnapshotError> {
    match r.u8()? {
        0 => Ok(SmInput::InsertBase(r.tuple()?)),
        1 => Ok(SmInput::DeleteBase(r.tuple()?)),
        2 => Ok(SmInput::Receive {
            from: r.node()?,
            delta: codec::read_tuple_delta(r)?,
        }),
        tag => Err(SnapshotError(format!("unknown SmInput tag {tag}"))),
    }
}

fn write_wire(w: &mut SnapshotWriter, wire: &SnoopyWire) -> Result<(), SnapshotError> {
    match wire {
        SnoopyWire::Data { message, auth } => {
            w.u8(0);
            codec::write_message(w, message);
            codec::write_authenticator(w, auth);
        }
        SnoopyWire::Ack { message, auth } => {
            w.u8(1);
            codec::write_message(w, message);
            codec::write_authenticator(w, auth);
        }
        SnoopyWire::Operator { input } => {
            w.u8(2);
            write_sm_input(w, input);
        }
        SnoopyWire::Plain { message } => {
            w.u8(3);
            codec::write_message(w, message);
        }
        SnoopyWire::Batch { messages, auth } => {
            w.u8(4);
            w.u64(messages.len() as u64);
            for m in messages {
                codec::write_message(w, m);
            }
            codec::write_authenticator(w, auth);
        }
        // A corruption event is a model-checker artefact; a real fleet must
        // never emit one.
        SnoopyWire::Adversary { .. } => {
            return Err(SnapshotError("adversary packets have no wire encoding".into()));
        }
    }
    Ok(())
}

fn read_wire(r: &mut SnapshotReader) -> Result<SnoopyWire, SnapshotError> {
    match r.u8()? {
        0 => Ok(SnoopyWire::Data {
            message: codec::read_message(r)?,
            auth: codec::read_authenticator(r)?,
        }),
        1 => Ok(SnoopyWire::Ack {
            message: codec::read_message(r)?,
            auth: codec::read_authenticator(r)?,
        }),
        2 => Ok(SnoopyWire::Operator {
            input: read_sm_input(r)?,
        }),
        3 => Ok(SnoopyWire::Plain {
            message: codec::read_message(r)?,
        }),
        4 => {
            let n = r.read_len()?;
            let mut messages = r.vec_for(n, codec::MIN_MESSAGE_LEN);
            for _ in 0..n {
                messages.push(codec::read_message(r)?);
            }
            Ok(SnoopyWire::Batch {
                messages,
                auth: codec::read_authenticator(r)?,
            })
        }
        tag => Err(SnapshotError(format!("unknown SnoopyWire tag {tag}"))),
    }
}

/// Encode a protocol packet into a transport frame.
pub fn encode_wire(wire: &SnoopyWire) -> Result<Vec<u8>, SnapshotError> {
    let mut w = SnapshotWriter::new();
    w.u8(TAG_WIRE);
    write_wire(&mut w, wire)?;
    Ok(w.finish())
}

// ---------------------------------------------------------------------------
// Audit RPC
// ---------------------------------------------------------------------------

/// A querier→node audit request: one of the five read-only surfaces the
/// in-process audit path exercises on a [`SnoopyHandle`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AuditRequest {
    /// `retrieve_anchored(at)` — the §5.4/§5.6 retrieve primitive.
    RetrieveAnchored {
        /// Time of interest (`None` = now).
        at: Option<Timestamp>,
    },
    /// `anchor_epoch(at)` — the cheap metadata half of the handshake.
    AnchorEpoch {
        /// Time of interest (`None` = now).
        at: Option<Timestamp>,
    },
    /// `log_total_appended()` — distinguishes an empty log from a refusal.
    LogTotalAppended,
    /// `authenticators_from(node)` — peer-held evidence for the §5.5
    /// consistency check.
    AuthenticatorsFrom {
        /// The node whose authenticators are requested.
        node: NodeId,
    },
    /// Whether the node has reported missing acks to the maintainer (§5.4).
    MaintainerNotified,
}

/// The response to an [`AuditRequest`] (same order of variants).
// One response exists at a time, decoded and immediately consumed — boxing
// the retrieve payload would complicate the codec for no measurable win.
#[allow(clippy::large_enum_variant)]
#[derive(Clone, Debug)]
pub enum AuditResponse {
    /// Response to [`AuditRequest::RetrieveAnchored`].
    RetrieveAnchored(Option<RetrieveResponse>),
    /// Response to [`AuditRequest::AnchorEpoch`].
    AnchorEpoch(Option<u64>),
    /// Response to [`AuditRequest::LogTotalAppended`].
    LogTotalAppended(u64),
    /// Response to [`AuditRequest::AuthenticatorsFrom`].
    Authenticators(Vec<Authenticator>),
    /// Response to [`AuditRequest::MaintainerNotified`].
    MaintainerNotified(bool),
}

fn write_opt_u64(w: &mut SnapshotWriter, v: Option<u64>) {
    match v {
        None => w.u8(0),
        Some(v) => {
            w.u8(1);
            w.u64(v);
        }
    }
}

fn read_opt_u64(r: &mut SnapshotReader) -> Result<Option<u64>, SnapshotError> {
    match r.u8()? {
        0 => Ok(None),
        1 => Ok(Some(r.u64()?)),
        tag => Err(SnapshotError(format!("bad option tag {tag}"))),
    }
}

fn write_bytes(w: &mut SnapshotWriter, bytes: &[u8]) {
    w.u64(bytes.len() as u64);
    w.bytes(bytes);
}

fn read_bytes(r: &mut SnapshotReader) -> Result<Vec<u8>, SnapshotError> {
    let n = r.read_len()?;
    Ok(r.bytes(n)?.to_vec())
}

fn write_anchor(w: &mut SnapshotWriter, anchor: &Option<(snp_log::Checkpoint, Vec<u8>)>) {
    match anchor {
        None => w.u8(0),
        Some((cp, snapshot)) => {
            w.u8(1);
            codec::write_checkpoint(w, cp);
            write_bytes(w, snapshot);
        }
    }
}

fn read_anchor(r: &mut SnapshotReader) -> Result<Option<(snp_log::Checkpoint, Vec<u8>)>, SnapshotError> {
    match r.u8()? {
        0 => Ok(None),
        1 => Ok(Some((codec::read_checkpoint(r)?, read_bytes(r)?))),
        tag => Err(SnapshotError(format!("bad anchor tag {tag}"))),
    }
}

fn write_retrieve(w: &mut SnapshotWriter, resp: &RetrieveResponse) {
    write_anchor(w, &resp.anchor);
    match &resp.anchor_link {
        None => w.u8(0),
        Some(link) => {
            w.u8(1);
            write_anchor(w, &link.prev);
            codec::write_segment(w, &link.segment);
        }
    }
    w.u64(resp.segments.len() as u64);
    for s in &resp.segments {
        codec::write_segment(w, s);
    }
    codec::write_authenticator(w, &resp.auth);
}

fn read_retrieve(r: &mut SnapshotReader) -> Result<RetrieveResponse, SnapshotError> {
    let anchor = read_anchor(r)?;
    let anchor_link = match r.u8()? {
        0 => None,
        1 => Some(AnchorLink {
            prev: read_anchor(r)?,
            segment: codec::read_segment(r)?,
        }),
        tag => return Err(SnapshotError(format!("bad anchor-link tag {tag}"))),
    };
    let n = r.read_len()?;
    let mut segments = r.vec_for(n, codec::MIN_SEGMENT_LEN);
    for _ in 0..n {
        segments.push(codec::read_segment(r)?);
    }
    Ok(RetrieveResponse {
        anchor,
        anchor_link,
        segments,
        auth: codec::read_authenticator(r)?,
    })
}

/// Encode an audit request frame (`id` correlates the response).
pub fn encode_audit_request(id: u64, req: &AuditRequest) -> Vec<u8> {
    let mut w = SnapshotWriter::new();
    w.u8(TAG_AUDIT_REQ);
    w.u64(id);
    match req {
        AuditRequest::RetrieveAnchored { at } => {
            w.u8(0);
            write_opt_u64(&mut w, *at);
        }
        AuditRequest::AnchorEpoch { at } => {
            w.u8(1);
            write_opt_u64(&mut w, *at);
        }
        AuditRequest::LogTotalAppended => w.u8(2),
        AuditRequest::AuthenticatorsFrom { node } => {
            w.u8(3);
            w.node(*node);
        }
        AuditRequest::MaintainerNotified => w.u8(4),
    }
    w.finish()
}

/// Encode an audit response frame.
pub fn encode_audit_response(id: u64, resp: &AuditResponse) -> Vec<u8> {
    let mut w = SnapshotWriter::new();
    w.u8(TAG_AUDIT_RESP);
    w.u64(id);
    match resp {
        AuditResponse::RetrieveAnchored(None) => w.u8(0),
        AuditResponse::RetrieveAnchored(Some(r)) => {
            w.u8(1);
            write_retrieve(&mut w, r);
        }
        AuditResponse::AnchorEpoch(v) => {
            w.u8(2);
            write_opt_u64(&mut w, *v);
        }
        AuditResponse::LogTotalAppended(v) => {
            w.u8(3);
            w.u64(*v);
        }
        AuditResponse::Authenticators(auths) => {
            w.u8(4);
            w.u64(auths.len() as u64);
            for a in auths {
                codec::write_authenticator(&mut w, a);
            }
        }
        AuditResponse::MaintainerNotified(b) => {
            w.u8(5);
            w.u8(u8::from(*b));
        }
    }
    w.finish()
}

/// A decoded transport frame.
// Frames are transient: decoded, dispatched, dropped — one at a time.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
pub enum FleetFrame {
    /// A protocol packet for the node state machine.
    Wire(SnoopyWire),
    /// An audit request to serve.
    AuditRequest {
        /// Correlation id to echo in the response.
        id: u64,
        /// The request.
        request: AuditRequest,
    },
    /// An audit response for a pending [`RemotePeer::call`].
    AuditResponse {
        /// The correlation id of the request this answers.
        id: u64,
        /// The response.
        response: AuditResponse,
    },
}

/// Decode any fleet frame.  Malformed bytes are a typed error — a frame
/// crosses a trust boundary, so decoding must never panic.
pub fn decode_frame(bytes: &[u8]) -> Result<FleetFrame, SnapshotError> {
    let mut r = SnapshotReader::new(bytes);
    let frame = match r.u8()? {
        TAG_WIRE => FleetFrame::Wire(read_wire(&mut r)?),
        TAG_AUDIT_REQ => {
            let id = r.u64()?;
            let request = match r.u8()? {
                0 => AuditRequest::RetrieveAnchored {
                    at: read_opt_u64(&mut r)?,
                },
                1 => AuditRequest::AnchorEpoch {
                    at: read_opt_u64(&mut r)?,
                },
                2 => AuditRequest::LogTotalAppended,
                3 => AuditRequest::AuthenticatorsFrom { node: r.node()? },
                4 => AuditRequest::MaintainerNotified,
                tag => return Err(SnapshotError(format!("unknown audit request tag {tag}"))),
            };
            FleetFrame::AuditRequest { id, request }
        }
        TAG_AUDIT_RESP => {
            let id = r.u64()?;
            let response = match r.u8()? {
                0 => AuditResponse::RetrieveAnchored(None),
                1 => AuditResponse::RetrieveAnchored(Some(read_retrieve(&mut r)?)),
                2 => AuditResponse::AnchorEpoch(read_opt_u64(&mut r)?),
                3 => AuditResponse::LogTotalAppended(r.u64()?),
                4 => {
                    let n = r.read_len()?;
                    let mut auths = r.vec_for(n, codec::AUTHENTICATOR_LEN);
                    for _ in 0..n {
                        auths.push(codec::read_authenticator(&mut r)?);
                    }
                    AuditResponse::Authenticators(auths)
                }
                5 => AuditResponse::MaintainerNotified(match r.u8()? {
                    0 => false,
                    1 => true,
                    tag => return Err(SnapshotError(format!("bad bool {tag}"))),
                }),
                tag => return Err(SnapshotError(format!("unknown audit response tag {tag}"))),
            };
            FleetFrame::AuditResponse { id, response }
        }
        tag => return Err(SnapshotError(format!("unknown frame tag {tag}"))),
    };
    r.expect_exhausted()?;
    Ok(frame)
}

// ---------------------------------------------------------------------------
// The wall-clock node driver
// ---------------------------------------------------------------------------

/// Drives one [`SnoopyNode`] against a real [`Transport`]: the fleet-mode
/// counterpart of the simulator's event loop for a single node.  Local
/// "time" is microseconds since [`FleetNode::start`], so epoch lengths and
/// batch windows configured in simulator units mean the same thing here.
#[derive(Debug)]
pub struct FleetNode {
    handle: SnoopyHandle,
    transport: Box<dyn Transport>,
    timers: BinaryHeap<Reverse<(u64, u64)>>,
    started: Instant,
    rng_counter: u64,
    halted: bool,
    /// Transport failures observed while dispatching (bounded; newest kept).
    errors: Vec<TransportError>,
}

impl FleetNode {
    /// Wrap `node` and `transport` into a driver.  Call
    /// [`FleetNode::start`] before the first [`FleetNode::run_for`].
    pub fn new(node: SnoopyNode, transport: Box<dyn Transport>) -> FleetNode {
        FleetNode {
            handle: SnoopyHandle::new(node),
            transport,
            timers: BinaryHeap::new(),
            started: Instant::now(),
            rng_counter: 0,
            halted: false,
            errors: Vec::new(),
        }
    }

    /// The wrapped node's handle (for inspection and local audits).
    pub fn handle(&self) -> &SnoopyHandle {
        &self.handle
    }

    /// Local node time: microseconds since the driver started.
    pub fn now(&self) -> SimTime {
        // A u64 of microseconds lasts ~584k years; the cast is lossless.
        #[allow(clippy::cast_possible_truncation)]
        SimTime::from_micros(self.started.elapsed().as_micros() as u64)
    }

    /// Transport failures observed so far (send errors are collected, not
    /// fatal: the protocol layer retransmits, per Assumption 1).
    pub fn errors(&self) -> &[TransportError] {
        &self.errors
    }

    /// Run the node's `on_start` callback (resets the local clock origin).
    pub fn start(&mut self) {
        self.started = Instant::now();
        let outputs = self.callback(|node, ctx| node.on_start(ctx));
        self.dispatch(outputs);
    }

    fn callback(
        &mut self,
        f: impl FnOnce(&mut SnoopyNode, &mut Context<SnoopyWire>),
    ) -> (
        Vec<snp_sim::node::Outgoing<SnoopyWire>>,
        Vec<snp_sim::node::TimerRequest>,
        bool,
    ) {
        let now = self.now();
        let id = self.transport.local();
        self.rng_counter += 1;
        let rng = snp_sim::rng::DetRng::new(self.rng_counter);
        self.handle.with(|node| {
            let mut ctx = Context::for_driver(id, now, rng);
            f(node, &mut ctx);
            ctx.into_outputs()
        })
    }

    fn dispatch(
        &mut self,
        (sends, timers, halted): (
            Vec<snp_sim::node::Outgoing<SnoopyWire>>,
            Vec<snp_sim::node::TimerRequest>,
            bool,
        ),
    ) {
        for out in sends {
            match encode_wire(&out.payload) {
                Ok(frame) => {
                    if let Err(e) = self.transport.send(out.to, &frame) {
                        self.push_error(e);
                    }
                }
                Err(_) => {
                    // Unencodable packets (adversary artefacts) never leave
                    // the process.
                }
            }
        }
        for t in timers {
            self.timers.push(Reverse((t.fire_at.as_micros(), t.id.0)));
        }
        if halted {
            self.halted = true;
        }
    }

    fn push_error(&mut self, e: TransportError) {
        if self.errors.len() >= 64 {
            self.errors.remove(0);
        }
        self.errors.push(e);
    }

    fn fire_due_timers(&mut self) {
        while let Some(Reverse((fire_at, id))) = self.timers.peek().copied() {
            if SimTime::from_micros(fire_at) > self.now() || self.halted {
                break;
            }
            self.timers.pop();
            let outputs = self.callback(|node, ctx| node.on_timer(ctx, TimerId(id)));
            self.dispatch(outputs);
        }
    }

    /// Serve one decoded frame.
    fn handle_frame(&mut self, from: NodeId, frame: FleetFrame) {
        match frame {
            FleetFrame::Wire(wire) => {
                let outputs = self.callback(|node, ctx| node.on_message(ctx, from, wire));
                self.dispatch(outputs);
            }
            FleetFrame::AuditRequest { id, request } => {
                let response = self.serve(&request);
                let bytes = encode_audit_response(id, &response);
                if let Err(e) = self.transport.send(from, &bytes) {
                    self.push_error(e);
                }
            }
            // A response with no pending call on this side: stray, drop it.
            FleetFrame::AuditResponse { .. } => {}
        }
    }

    /// Answer an audit request from the node's current state — exactly the
    /// reads the in-process audit path performs on a handle.
    fn serve(&self, request: &AuditRequest) -> AuditResponse {
        match request {
            AuditRequest::RetrieveAnchored { at } => {
                AuditResponse::RetrieveAnchored(self.handle.retrieve_anchored(*at))
            }
            AuditRequest::AnchorEpoch { at } => AuditResponse::AnchorEpoch(self.handle.anchor_epoch(*at)),
            AuditRequest::LogTotalAppended => {
                AuditResponse::LogTotalAppended(self.handle.with(|n| n.log_total_appended()))
            }
            AuditRequest::AuthenticatorsFrom { node } => {
                AuditResponse::Authenticators(self.handle.authenticators_from(*node))
            }
            AuditRequest::MaintainerNotified => {
                AuditResponse::MaintainerNotified(self.handle.with(|n| !n.maintainer_notifications().is_empty()))
            }
        }
    }

    /// Pump the node for (wall-clock) `wall`: deliver arrived frames, fire
    /// due timers, dispatch outputs.  Returns early if the node halts.
    pub fn run_for(&mut self, wall: Duration) {
        let deadline = Instant::now() + wall;
        while !self.halted {
            self.fire_due_timers();
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                break;
            }
            // Wake for whichever comes first: the next timer or the budget.
            let until_timer = self
                .timers
                .peek()
                .map(|Reverse((fire_at, _))| Duration::from_micros(fire_at.saturating_sub(self.now().as_micros())))
                .unwrap_or(remaining);
            let wait = remaining.min(until_timer).min(Duration::from_millis(20));
            match self.transport.poll(wait) {
                Ok(Some(frame)) => match decode_frame(&frame.bytes) {
                    Ok(decoded) => self.handle_frame(frame.from, decoded),
                    Err(_) => {
                        // Malformed frame from a (possibly Byzantine) peer:
                        // drop it.  Evidence comes from audits, not parsing.
                    }
                },
                Ok(None) => {}
                Err(TransportError::Closed) => break,
                Err(e) => self.push_error(e),
            }
        }
    }
}

// ---------------------------------------------------------------------------
// The querier's remote peer
// ---------------------------------------------------------------------------

/// A querier-side client for one remote node: speaks the audit RPC over its
/// own transport endpoint.  Clone-able and thread-safe — parallel audit
/// workers (`SNP_QUERY_THREADS`) serialize on the inner mutex, which mirrors
/// how [`SnoopyHandle`] serializes on the node mutex locally.
#[derive(Clone, Debug)]
pub struct RemotePeer {
    peer: NodeId,
    inner: Arc<Mutex<RemoteInner>>,
}

#[derive(Debug)]
struct RemoteInner {
    transport: Box<dyn Transport>,
    next_id: u64,
    timeout: Duration,
}

impl RemotePeer {
    /// Address `peer` through `transport` (the querier's own endpoint).
    /// `timeout` bounds each RPC round trip.
    pub fn new(peer: NodeId, transport: Box<dyn Transport>, timeout: Duration) -> RemotePeer {
        RemotePeer {
            peer,
            inner: Arc::new(Mutex::new(RemoteInner {
                transport,
                next_id: 1,
                timeout,
            })),
        }
    }

    /// The remote node's id.
    pub fn id(&self) -> NodeId {
        self.peer
    }

    /// Inject a protocol packet into the remote node (the operator's
    /// workload path — base-tuple inserts and deletes).
    pub fn send_wire(&self, wire: &SnoopyWire) -> Result<(), TransportError> {
        let frame = encode_wire(wire).map_err(|_| TransportError::UnknownPeer(self.peer))?;
        let mut inner = self.inner.lock().expect("remote peer lock");
        inner.transport.send(self.peer, &frame)
    }

    /// One RPC round trip.  `None` on timeout, transport failure or a
    /// malformed response — the audit layer renders all of those as a
    /// non-responding node (yellow, §4.2), which is the correct verdict for
    /// an unreachable or stonewalling peer.
    pub fn call(&self, request: &AuditRequest) -> Option<AuditResponse> {
        let mut inner = self.inner.lock().expect("remote peer lock");
        let id = inner.next_id;
        inner.next_id += 1;
        let bytes = encode_audit_request(id, request);
        inner.transport.send(self.peer, &bytes).ok()?;
        let deadline = Instant::now() + inner.timeout;
        loop {
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                return None;
            }
            match inner.transport.poll(remaining.min(Duration::from_millis(50))) {
                Ok(Some(frame)) => {
                    if frame.from != self.peer {
                        continue; // not ours; this endpoint is RPC-only
                    }
                    match decode_frame(&frame.bytes) {
                        Ok(FleetFrame::AuditResponse { id: rid, response }) if rid == id => {
                            return Some(response);
                        }
                        // Stale response to an abandoned call, or any other
                        // frame kind: skip and keep waiting.
                        Ok(_) => continue,
                        Err(_) => return None,
                    }
                }
                Ok(None) => continue,
                Err(_) => return None,
            }
        }
    }
}

// ---------------------------------------------------------------------------
// The querier's peer seam
// ---------------------------------------------------------------------------

/// How the querier reaches a node: a shared in-process handle (simulator
/// deployments — the default, byte-identical to the pre-fleet behaviour) or
/// an audit-RPC client (fleet deployments).
#[derive(Clone, Debug)]
pub enum PeerLink {
    /// In-process: delegate straight to the node handle.
    Local(SnoopyHandle),
    /// Remote: speak the audit RPC.
    Remote(RemotePeer),
}

impl PeerLink {
    /// The node this link reaches.
    pub fn id(&self) -> NodeId {
        match self {
            PeerLink::Local(h) => h.id(),
            PeerLink::Remote(p) => p.id(),
        }
    }

    /// The anchored retrieve primitive (§5.4 + §5.6).
    pub fn retrieve_anchored(&self, at: Option<Timestamp>) -> Option<RetrieveResponse> {
        match self {
            PeerLink::Local(h) => h.retrieve_anchored(at),
            PeerLink::Remote(p) => match p.call(&AuditRequest::RetrieveAnchored { at })? {
                AuditResponse::RetrieveAnchored(r) => r,
                _ => None,
            },
        }
    }

    /// The metadata half of the handshake: which epoch would anchor `at`.
    pub fn anchor_epoch(&self, at: Option<Timestamp>) -> Option<u64> {
        match self {
            PeerLink::Local(h) => h.anchor_epoch(at),
            PeerLink::Remote(p) => match p.call(&AuditRequest::AnchorEpoch { at })? {
                AuditResponse::AnchorEpoch(e) => e,
                _ => None,
            },
        }
    }

    /// Total entries the node ever appended (0 also when unreachable — the
    /// caller pairs this with a failed retrieve, which stays yellow).
    pub fn log_total_appended(&self) -> u64 {
        match self {
            PeerLink::Local(h) => h.with(|n| n.log_total_appended()),
            PeerLink::Remote(p) => match p.call(&AuditRequest::LogTotalAppended) {
                Some(AuditResponse::LogTotalAppended(v)) => v,
                _ => 0,
            },
        }
    }

    /// Authenticators this node holds from `node` (§5.5 consistency check).
    pub fn authenticators_from(&self, node: NodeId) -> Vec<Authenticator> {
        match self {
            PeerLink::Local(h) => h.authenticators_from(node),
            PeerLink::Remote(p) => match p.call(&AuditRequest::AuthenticatorsFrom { node }) {
                Some(AuditResponse::Authenticators(a)) => a,
                _ => Vec::new(),
            },
        }
    }

    /// Whether the node reported missing acks to the maintainer (§5.4).
    pub fn maintainer_notified(&self) -> bool {
        match self {
            PeerLink::Local(h) => h.with(|n| !n.maintainer_notifications().is_empty()),
            PeerLink::Remote(p) => matches!(
                p.call(&AuditRequest::MaintainerNotified),
                Some(AuditResponse::MaintainerNotified(true))
            ),
        }
    }

    /// The in-process handle, when this link is local (simulator-only
    /// call sites — fingerprints, test inspection).
    pub fn local(&self) -> Option<&SnoopyHandle> {
        match self {
            PeerLink::Local(h) => Some(h),
            PeerLink::Remote(_) => None,
        }
    }
}

/// A digest helper shared by tamper demos: flip one bit at `offset` in a
/// file (used by `examples/real_fleet.rs` and the CI job to corrupt a
/// segment on disk without rewriting the whole store).
pub fn flip_bit_in_file(path: &std::path::Path, offset: u64) -> std::io::Result<()> {
    let mut bytes = std::fs::read(path)?;
    let len = bytes.len() as u64;
    if len == 0 {
        return Err(std::io::Error::new(std::io::ErrorKind::InvalidInput, "empty file"));
    }
    #[allow(clippy::cast_possible_truncation)] // `offset % len` < the in-memory file length
    let at = (offset % len) as usize;
    bytes[at] ^= 0x01;
    std::fs::write(path, &bytes)
}

/// Corrupt the **latest entry-bearing** sealed segment under `node_dir`:
/// flip one bit in its final content byte, first deleting any sealed epochs
/// above it that carry no entries (segment + checkpoint record — the store
/// they leave behind is exactly what a crash *before* those empty seals
/// would have left).  Returns the tampered segment's path.
///
/// Tamper demos need the corruption to sit in the epoch a fresh audit
/// anchors on: a latest-anchored audit replays exactly one chain link
/// (previous checkpoint → anchor), so a flipped bit in an *older* epoch is
/// the historical-audit case, not the story these demos tell.  Flipping the
/// final byte keeps the record structurally parseable — only cryptographic
/// verification can tell it changed.
pub fn tamper_latest_sealed_segment(node_dir: &std::path::Path) -> std::io::Result<std::path::PathBuf> {
    let mut segs: Vec<(u64, std::path::PathBuf)> = std::fs::read_dir(node_dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "seg"))
        .filter_map(|p| {
            let epoch: u64 = p.file_stem()?.to_str()?.strip_prefix("epoch-")?.parse().ok()?;
            Some((epoch, p))
        })
        .collect();
    segs.sort();
    while let Some((_, seg)) = segs.last() {
        if std::fs::metadata(seg)?.len() > snp_log::store::SEG_HEADER_LEN {
            break;
        }
        if let Some((_, seg)) = segs.pop() {
            std::fs::remove_file(&seg)?;
            std::fs::remove_file(seg.with_extension("ckpt"))?;
        }
    }
    let Some((_, seg)) = segs.pop() else {
        return Err(std::io::Error::new(
            std::io::ErrorKind::NotFound,
            "no entry-bearing sealed segment to corrupt",
        ));
    };
    let len = std::fs::metadata(&seg)?.len();
    flip_bit_in_file(&seg, len - 1)?;
    Ok(seg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use snp_crypto::keys::KeyPair;
    use snp_crypto::Digest;
    use snp_datalog::{Tuple, TupleDelta, Value};
    use snp_graph::history::Message;

    fn message() -> Message {
        Message::delta(
            NodeId(1),
            NodeId(2),
            TupleDelta::plus(Tuple::new("route", NodeId(2), vec![Value::str("10.0.0.0/8")])),
            10,
            1,
        )
    }

    fn auth() -> Authenticator {
        Authenticator::issue(&KeyPair::for_node(NodeId(1)), 3, 10, Digest::ZERO)
    }

    #[test]
    fn wire_roundtrips() {
        let wires = [
            SnoopyWire::Data {
                message: message(),
                auth: auth(),
            },
            SnoopyWire::Ack {
                message: Message::ack(&message(), 20, 2),
                auth: auth(),
            },
            SnoopyWire::Operator {
                input: SmInput::InsertBase(Tuple::new("x", NodeId(1), vec![])),
            },
            SnoopyWire::Operator {
                input: SmInput::Receive {
                    from: NodeId(3),
                    delta: TupleDelta::minus(Tuple::new("y", NodeId(1), vec![Value::Int(4)])),
                },
            },
            SnoopyWire::Plain { message: message() },
            SnoopyWire::Batch {
                messages: vec![message(), message()],
                auth: auth(),
            },
        ];
        for wire in &wires {
            let bytes = encode_wire(wire).expect("encodable");
            let decoded = decode_frame(&bytes).expect("decodable");
            let FleetFrame::Wire(back) = decoded else {
                panic!("wrong frame kind");
            };
            // SnoopyWire has no PartialEq; compare via wire size + category
            // and the debug form, which covers every field.
            assert_eq!(format!("{back:?}"), format!("{wire:?}"));
        }
    }

    #[test]
    fn adversary_packets_are_not_encodable() {
        let wire = SnoopyWire::Adversary {
            action: crate::fault::AdversaryAction::SuppressAcks,
        };
        assert!(encode_wire(&wire).is_err());
    }

    #[test]
    fn audit_rpc_roundtrips() {
        let requests = [
            AuditRequest::RetrieveAnchored { at: Some(42) },
            AuditRequest::AnchorEpoch { at: None },
            AuditRequest::LogTotalAppended,
            AuditRequest::AuthenticatorsFrom { node: NodeId(9) },
            AuditRequest::MaintainerNotified,
        ];
        for (i, req) in requests.iter().enumerate() {
            let bytes = encode_audit_request(i as u64, req);
            match decode_frame(&bytes).expect("decodable") {
                FleetFrame::AuditRequest { id, request } => {
                    assert_eq!(id, i as u64);
                    assert_eq!(&request, req);
                }
                other => panic!("wrong frame: {other:?}"),
            }
        }
        let resp = AuditResponse::Authenticators(vec![auth(), auth()]);
        let bytes = encode_audit_response(7, &resp);
        match decode_frame(&bytes).expect("decodable") {
            FleetFrame::AuditResponse {
                id: 7,
                response: AuditResponse::Authenticators(a),
            } => {
                assert_eq!(a, vec![auth(), auth()]);
            }
            other => panic!("wrong frame: {other:?}"),
        }
    }

    #[test]
    fn malformed_frames_are_typed_errors() {
        assert!(decode_frame(&[]).is_err());
        assert!(decode_frame(&[0x77]).is_err());
        let mut good = encode_audit_request(1, &AuditRequest::LogTotalAppended);
        good.push(0xFF); // trailing garbage
        assert!(decode_frame(&good).is_err());
    }
}
