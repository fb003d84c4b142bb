//! The RPC substrate: the gRPC substitute between lab computer and
//! middlebox.
//!
//! RATracer tunnels each intercepted call through gRPC. This module
//! reproduces the moving parts that matter for a middlebox deployment:
//!
//! - a length-prefixed [`FrameCodec`] that reassembles frames from an
//!   arbitrarily-chunked byte stream,
//! - [`Duplex`] in-process byte transports (the socket substitute) and
//!   the [`Transport`] trait that lets the fault layer interpose a
//!   [`FaultyDuplex`](crate::faults::FaultyDuplex),
//! - a [`RpcServer`] thread that owns the device rig and executes one
//!   request at a time — the single RPC server loop of the real
//!   deployment — with an idempotency cache so a retried request is
//!   answered from memory instead of re-executed, and
//! - a blocking [`RpcClient`] with per-call timeouts and an optional
//!   retry-with-exponential-backoff [`RetryPolicy`].
//!
//! # Examples
//!
//! ```
//! use rad_core::{Command, CommandType};
//! use rad_devices::LabRig;
//! use rad_middlebox::rpc::{Duplex, RpcClient, RpcServer};
//! use std::time::Duration;
//!
//! let (client_side, server_side) = Duplex::pair();
//! let server = RpcServer::spawn(LabRig::new(0), server_side);
//! let mut client = RpcClient::new(client_side);
//! let value = client.call(&Command::nullary(CommandType::InitIka), Duration::from_secs(1))?;
//! assert_eq!(value, rad_core::Value::Unit);
//! drop(client); // closing the transport stops the server loop
//! server.join().expect("server thread exits cleanly");
//! # Ok::<(), rad_core::RadError>(())
//! ```

use std::collections::{HashMap, VecDeque};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use bytes::{Buf, BufMut, Bytes, BytesMut};
use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use rad_core::{spec, Command, RadError, Value};
use rad_devices::LabRig;

use crate::faults::FaultStats;
use crate::wire;

/// Maximum accepted frame size (defensive bound against corrupt length
/// prefixes).
pub const MAX_FRAME_BYTES: usize = 1 << 20;

/// How many request/response pairs the server remembers for
/// idempotent replay of retried requests.
pub const DEDUP_CACHE_SIZE: usize = 1024;

/// A bounded LRU of request id → framed reply — the idempotency cache
/// behind both the [`RpcServer`] and the lab service's per-tenant
/// sessions.
///
/// Retried requests replay their cached reply instead of re-executing,
/// and recently *replayed* ids count as recently used, so the entries a
/// flaky client still needs outlive a flood of fresh traffic. Recency
/// is tracked with a monotonic tick per entry plus a queue of
/// `(id, tick)` observations; stale observations are skipped on
/// eviction and the queue is compacted once it doubles the capacity,
/// keeping both memory and amortized cost O(capacity).
///
/// Cached replies are shared [`Bytes`], so replaying one is a
/// reference-count bump, not a copy.
///
/// # Examples
///
/// ```
/// use bytes::Bytes;
/// use rad_middlebox::rpc::DedupCache;
///
/// let mut cache = DedupCache::new(2);
/// cache.insert(1, Bytes::from_static(b"a"));
/// cache.insert(2, Bytes::from_static(b"b"));
/// cache.get(1); // refreshes id 1
/// let evicted = cache.insert(3, Bytes::from_static(b"c"));
/// assert_eq!(evicted, 1); // id 2 was least recently used
/// assert!(cache.get(1).is_some() && cache.get(2).is_none());
/// ```
#[derive(Debug)]
pub struct DedupCache {
    capacity: usize,
    tick: u64,
    entries: HashMap<u64, (Bytes, u64)>,
    order: VecDeque<(u64, u64)>,
}

impl DedupCache {
    /// An empty cache holding at most `capacity` replies.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero — a server without any dedup
    /// window would double-execute every retry.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "dedup capacity must be at least 1");
        DedupCache {
            capacity,
            tick: 0,
            entries: HashMap::new(),
            order: VecDeque::new(),
        }
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// How many replies are currently cached.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Drops every entry (a new session must not replay an old one's
    /// replies).
    pub fn clear(&mut self) {
        self.entries.clear();
        self.order.clear();
    }

    /// The cached reply for `id`, refreshing its recency.
    pub fn get(&mut self, id: u64) -> Option<Bytes> {
        self.tick += 1;
        let tick = self.tick;
        let (reply, entry_tick) = self.entries.get_mut(&id)?;
        *entry_tick = tick;
        let reply = reply.clone();
        self.order.push_back((id, tick));
        self.compact_if_bloated();
        Some(reply)
    }

    /// Caches the reply for `id`, evicting least-recently-used entries
    /// beyond capacity. Returns how many entries were evicted (0 or 1,
    /// in steady state).
    pub fn insert(&mut self, id: u64, reply: Bytes) -> u64 {
        self.tick += 1;
        self.entries.insert(id, (reply, self.tick));
        self.order.push_back((id, self.tick));
        let mut evicted = 0;
        while self.entries.len() > self.capacity {
            let Some((old_id, old_tick)) = self.order.pop_front() else {
                break;
            };
            // Skip stale observations: the id was refreshed (or
            // overwritten) after this queue entry was recorded.
            if self
                .entries
                .get(&old_id)
                .is_some_and(|(_, tick)| *tick == old_tick)
            {
                self.entries.remove(&old_id);
                evicted += 1;
            }
        }
        self.compact_if_bloated();
        evicted
    }

    /// Rebuilds the recency queue from live entries once stale
    /// observations dominate, bounding it at O(capacity).
    fn compact_if_bloated(&mut self) {
        if self.order.len() < self.capacity.saturating_mul(2).max(16) {
            return;
        }
        let mut live: Vec<(u64, u64)> = self
            .entries
            .iter()
            .map(|(&id, &(_, tick))| (id, tick))
            .collect();
        live.sort_unstable_by_key(|&(_, tick)| tick);
        self.order = live.into();
    }
}

/// A byte-chunk transport between lab computer and middlebox.
///
/// [`Duplex`] is the perfect-channel implementation; the fault layer's
/// [`FaultyDuplex`](crate::faults::FaultyDuplex) interposes a seeded
/// fault schedule without the client or server knowing.
pub trait Transport {
    /// Sends one chunk to the peer.
    ///
    /// # Errors
    ///
    /// [`RadError::RpcDisconnected`] if the peer is gone.
    fn send(&self, chunk: Bytes) -> Result<(), RadError>;

    /// Receives the next chunk, waiting up to `timeout`.
    ///
    /// # Errors
    ///
    /// [`RadError::RpcTimeout`] when the wait elapses with the peer
    /// still connected; [`RadError::RpcDisconnected`] when the peer is
    /// gone. Retry logic depends on telling these apart.
    fn recv(&self, timeout: Duration) -> Result<Bytes, RadError>;

    /// Receives the next chunk, blocking until the peer sends or
    /// disconnects. Returns `None` on disconnect.
    fn recv_blocking(&self) -> Option<Bytes>;

    /// Whether every received chunk is exactly one chunk the peer
    /// sent, so each chunk starts on a frame boundary. [`Duplex`]
    /// keeps chunk boundaries; a socket is a byte stream and does not
    /// (the default). Over a boundary-keeping transport, bytes left
    /// from the previous chunk can only be a frame whose length prefix
    /// was damaged in flight, and endpoints drop them.
    fn keeps_chunk_boundaries(&self) -> bool {
        false
    }
}

/// A request frame: one command invocation.
#[derive(Debug, Clone, PartialEq)]
pub struct RpcRequest {
    /// Client-assigned correlation id, doubling as the idempotency
    /// token: retries reuse the id, and the server replays the cached
    /// response for an id it has already executed.
    pub id: u64,
    /// The command to execute on the rig.
    pub command: Command,
}

/// A response frame.
#[derive(Debug, Clone, PartialEq)]
pub struct RpcResponse {
    /// Echoed correlation id.
    pub id: u64,
    /// The return value, or the device fault rendered as a string (the
    /// exception text RATracer logs).
    pub result: Result<Value, String>,
}

/// Length-prefixed frame assembler: 4-byte big-endian length followed
/// by the payload.
///
/// The accepted frame size is configurable per endpoint
/// ([`FrameCodec::with_max_frame`]): trusted in-process endpoints use
/// the defensive [`MAX_FRAME_BYTES`] default, while a server decoding
/// untrusted client bytes caps frames much tighter.
///
/// Once [`FrameCodec::next_frame`] reports an error the codec is
/// poisoned — the byte stream has lost framing and every subsequent
/// call returns the same typed [`RadError::FrameTooLarge`] instead of
/// silently waiting forever on a corrupt length prefix.
/// [`FrameCodec::reset`] discards the buffered bytes and clears the
/// poison, which is sound whenever the transport delivers whole frames
/// per chunk (as [`Duplex`] does): the next chunk starts at a frame
/// boundary. On a real socket no such boundary exists, which is why
/// the lab service quarantines the session instead of resetting.
///
/// # Examples
///
/// ```
/// use rad_middlebox::rpc::FrameCodec;
///
/// let frame = FrameCodec::encode(b"hello");
/// let mut codec = FrameCodec::new();
/// // Feed the frame one byte at a time: it still reassembles.
/// for b in frame.iter() {
///     codec.push(&[*b]);
/// }
/// assert_eq!(codec.next_frame().unwrap().unwrap().as_ref(), b"hello");
/// ```
#[derive(Debug)]
pub struct FrameCodec {
    buf: BytesMut,
    max_frame: usize,
    poisoned: Option<RadError>,
}

impl Default for FrameCodec {
    fn default() -> Self {
        FrameCodec::new()
    }
}

impl FrameCodec {
    /// An empty codec accepting frames up to [`MAX_FRAME_BYTES`].
    pub fn new() -> Self {
        FrameCodec::with_max_frame(MAX_FRAME_BYTES)
    }

    /// An empty codec accepting frames up to `max_frame` bytes — the
    /// per-endpoint cap (servers bound untrusted client frames tighter
    /// than trusted in-process use).
    pub fn with_max_frame(max_frame: usize) -> Self {
        FrameCodec {
            buf: BytesMut::new(),
            max_frame,
            poisoned: None,
        }
    }

    /// The frame-size cap this endpoint enforces on decode.
    pub fn max_frame(&self) -> usize {
        self.max_frame
    }

    /// Encodes one payload as a framed byte string.
    ///
    /// # Panics
    ///
    /// Panics if `payload` exceeds [`MAX_FRAME_BYTES`] — such a frame
    /// could never be decoded by the peer.
    pub fn encode(payload: &[u8]) -> Bytes {
        assert!(
            payload.len() <= MAX_FRAME_BYTES,
            "payload of {} bytes exceeds MAX_FRAME_BYTES",
            payload.len()
        );
        let mut out = BytesMut::with_capacity(payload.len() + 4);
        out.put_u32(payload.len() as u32);
        out.put_slice(payload);
        out.freeze()
    }

    /// Appends one framed payload to a reusable buffer — the
    /// pooled-buffer form of [`FrameCodec::encode`]. Batch senders
    /// accumulate several frames in one scratch `Vec` and hand the
    /// transport a single chunk.
    ///
    /// # Panics
    ///
    /// As [`FrameCodec::encode`], if `payload` exceeds
    /// [`MAX_FRAME_BYTES`].
    pub fn encode_into(payload: &[u8], out: &mut Vec<u8>) {
        let start = FrameCodec::begin_frame(out);
        out.extend_from_slice(payload);
        FrameCodec::finish_frame(out, start);
    }

    /// Reserves a length prefix in `out` so a frame body can be
    /// written in place (no intermediate payload buffer). Returns the
    /// frame's start offset for [`FrameCodec::finish_frame`].
    pub fn begin_frame(out: &mut Vec<u8>) -> usize {
        let start = out.len();
        out.extend_from_slice(&[0u8; 4]);
        start
    }

    /// Backfills the length prefix reserved by
    /// [`FrameCodec::begin_frame`] once the body is written.
    ///
    /// # Panics
    ///
    /// Panics if the body exceeds [`MAX_FRAME_BYTES`] — such a frame
    /// could never be decoded by the peer.
    pub fn finish_frame(out: &mut [u8], start: usize) {
        let len = out.len() - start - 4;
        assert!(
            len <= MAX_FRAME_BYTES,
            "payload of {len} bytes exceeds MAX_FRAME_BYTES"
        );
        out[start..start + 4].copy_from_slice(&(len as u32).to_be_bytes());
    }

    /// Appends raw bytes received from the transport.
    pub fn push(&mut self, chunk: &[u8]) {
        self.buf.put_slice(chunk);
    }

    /// Extracts the next complete frame, if one has fully arrived.
    ///
    /// # Errors
    ///
    /// Returns [`RadError::FrameTooLarge`] when the length prefix
    /// exceeds this endpoint's cap — the stream has lost framing at
    /// that point and the codec stays poisoned (repeating the same
    /// error) until [`FrameCodec::reset`].
    pub fn next_frame(&mut self) -> Result<Option<Bytes>, RadError> {
        if let Some(err) = &self.poisoned {
            return Err(err.clone());
        }
        if self.buf.len() < 4 {
            return Ok(None);
        }
        let len = u32::from_be_bytes([self.buf[0], self.buf[1], self.buf[2], self.buf[3]]) as usize;
        if len > self.max_frame {
            let err = RadError::FrameTooLarge {
                len,
                limit: self.max_frame,
            };
            self.poisoned = Some(err.clone());
            return Err(err);
        }
        if self.buf.len() < 4 + len {
            return Ok(None);
        }
        self.buf.advance(4);
        Ok(Some(self.buf.split_to(len).freeze()))
    }

    /// Discards all buffered bytes and clears the poison flag,
    /// resynchronizing at the next chunk boundary.
    pub fn reset(&mut self) {
        self.buf.clear();
        self.poisoned = None;
    }
}

/// One side of an in-process byte-stream transport.
///
/// Stands in for a TCP socket between lab computer and middlebox: each
/// side can send byte chunks and receive the peer's chunks. Dropping a
/// side disconnects the stream.
#[derive(Debug)]
pub struct Duplex {
    tx: Sender<Bytes>,
    rx: Receiver<Bytes>,
}

impl Duplex {
    /// Creates a connected pair of transport endpoints.
    pub fn pair() -> (Duplex, Duplex) {
        let (a_tx, a_rx) = unbounded();
        let (b_tx, b_rx) = unbounded();
        (Duplex { tx: a_tx, rx: b_rx }, Duplex { tx: b_tx, rx: a_rx })
    }

    /// Sends one chunk to the peer.
    ///
    /// # Errors
    ///
    /// Returns [`RadError::RpcDisconnected`] if the peer has
    /// disconnected.
    pub fn send(&self, chunk: Bytes) -> Result<(), RadError> {
        self.tx
            .send(chunk)
            .map_err(|_| RadError::RpcDisconnected("peer disconnected".into()))
    }

    /// Receives the next chunk, waiting up to `timeout`.
    ///
    /// # Errors
    ///
    /// Returns [`RadError::RpcTimeout`] when the wait elapses and
    /// [`RadError::RpcDisconnected`] when the peer is gone — distinct
    /// variants, because only the former is safely retryable.
    pub fn recv(&self, timeout: Duration) -> Result<Bytes, RadError> {
        self.rx.recv_timeout(timeout).map_err(|e| match e {
            RecvTimeoutError::Timeout => RadError::RpcTimeout("receive timed out".into()),
            RecvTimeoutError::Disconnected => RadError::RpcDisconnected("peer disconnected".into()),
        })
    }

    /// Receives the next chunk, blocking until the peer sends or
    /// disconnects. Returns `None` on disconnect.
    pub fn recv_blocking(&self) -> Option<Bytes> {
        self.rx.recv().ok()
    }
}

impl Transport for Duplex {
    fn send(&self, chunk: Bytes) -> Result<(), RadError> {
        Duplex::send(self, chunk)
    }

    fn recv(&self, timeout: Duration) -> Result<Bytes, RadError> {
        Duplex::recv(self, timeout)
    }

    fn recv_blocking(&self) -> Option<Bytes> {
        Duplex::recv_blocking(self)
    }

    fn keeps_chunk_boundaries(&self) -> bool {
        true
    }
}

/// The middlebox's RPC server loop.
///
/// Owns the [`LabRig`]; executes one request at a time in arrival
/// order, exactly like the single gRPC service thread of the original
/// deployment. An idempotency cache of the last [`DEDUP_CACHE_SIZE`]
/// request ids replays cached responses for retried requests, so a
/// retry can never double-execute a device command. Undecodable bytes
/// (corrupt frames, garbage requests) are discarded and the codec
/// resynchronized at the next chunk, which on the in-process transports
/// this loop runs over always starts a frame — the affected caller
/// times out and retries, rather than one corrupt chunk killing the
/// connection for everyone.
#[derive(Debug)]
pub struct RpcServer;

impl RpcServer {
    /// Spawns the server thread. The loop exits when the client side
    /// disconnects. The returned handle yields the rig back so tests
    /// can inspect final device state.
    pub fn spawn<T>(rig: LabRig, transport: T) -> JoinHandle<LabRig>
    where
        T: Transport + Send + 'static,
    {
        RpcServer::spawn_with_stats(rig, transport, FaultStats::new())
    }

    /// Like [`RpcServer::spawn`], with a shared [`FaultStats`] handle
    /// counting executions and idempotent replays — the observability
    /// hook the conformance suite uses to prove no double execution.
    pub fn spawn_with_stats<T>(rig: LabRig, transport: T, stats: FaultStats) -> JoinHandle<LabRig>
    where
        T: Transport + Send + 'static,
    {
        RpcServer::spawn_with_capacity(rig, transport, stats, DEDUP_CACHE_SIZE)
    }

    /// Like [`RpcServer::spawn_with_stats`], with a configurable
    /// [`DedupCache`] capacity. Evictions count as
    /// `dedup_evictions` on the stats handle.
    ///
    /// Each received chunk may carry several frames (a pipelined
    /// client coalesces its window into one write); the loop decodes
    /// them all and answers with one coalesced reply chunk, so a
    /// depth-N window costs two syscalls instead of 2N.
    pub fn spawn_with_capacity<T>(
        mut rig: LabRig,
        transport: T,
        stats: FaultStats,
        dedup_capacity: usize,
    ) -> JoinHandle<LabRig>
    where
        T: Transport + Send + 'static,
    {
        std::thread::spawn(move || {
            let mut codec = FrameCodec::new();
            let mut cache = DedupCache::new(dedup_capacity);
            // Reused across requests: the steady-state encode path
            // allocates nothing beyond the shared reply `Bytes`.
            let mut scratch: Vec<u8> = Vec::new();
            let mut batch: Vec<u8> = Vec::new();
            while let Some(chunk) = transport.recv_blocking() {
                // Bytes left from the previous chunk of a
                // boundary-keeping transport are a frame whose length
                // prefix was damaged in flight: drop them instead of
                // letting them swallow the retries that follow.
                if transport.keeps_chunk_boundaries() {
                    codec.reset();
                }
                codec.push(&chunk);
                batch.clear();
                loop {
                    let frame = match codec.next_frame() {
                        Ok(Some(f)) => f,
                        Ok(None) => break,
                        Err(_) => {
                            // Lost framing (corrupt length prefix).
                            // Resync at the next chunk; the in-flight
                            // request is lost and its caller retries.
                            codec.reset();
                            break;
                        }
                    };
                    let Ok(request) = wire::decode_rpc_request(&frame) else {
                        // Corrupt or garbage request: discard it (and
                        // any desynced remainder). The caller times
                        // out and retries with the same token.
                        codec.reset();
                        break;
                    };
                    if let Some(cached) = cache.get(request.id) {
                        // Idempotent replay: the command already ran.
                        stats.note_dedup_hit();
                        batch.extend_from_slice(&cached);
                        continue;
                    }
                    stats.note_execution();
                    let result = rig
                        .execute(&request.command)
                        .map(|outcome| outcome.return_value)
                        .map_err(|fault| fault.to_string());
                    scratch.clear();
                    let start = FrameCodec::begin_frame(&mut scratch);
                    wire::encode_rpc_response(&mut scratch, request.id, &result);
                    FrameCodec::finish_frame(&mut scratch, start);
                    let framed = Bytes::copy_from_slice(&scratch);
                    batch.extend_from_slice(&framed);
                    for _ in 0..cache.insert(request.id, framed) {
                        stats.note_dedup_eviction();
                    }
                }
                if !batch.is_empty() && transport.send(Bytes::copy_from_slice(&batch)).is_err() {
                    return rig;
                }
            }
            rig
        })
    }
}

/// Retry schedule for [`RpcClient::call_with_retry`].
///
/// Attempts are spaced by exponential backoff
/// (`initial_backoff * backoff_factor^(attempt-1)`), optionally
/// jittered ([`RetryPolicy::with_jitter`]), each attempt waits at most
/// `attempt_timeout` for its response, and the whole call gives up at
/// `deadline` regardless of attempts remaining. Only
/// [retryable](RadError::is_retryable) failures (timeouts, overload
/// rejects) re-attempt: the retried request reuses its idempotency
/// token, so the server never double-executes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Maximum number of attempts (first try included). At least 1.
    pub max_attempts: u32,
    /// Wait before the first retry.
    pub initial_backoff: Duration,
    /// Multiplier applied to the backoff after each retry.
    pub backoff_factor: u32,
    /// Response wait per attempt.
    pub attempt_timeout: Duration,
    /// Overall budget for the call, backoff included.
    pub deadline: Duration,
    /// Seed of the deterministic jitter stream. Two clients with
    /// different seeds de-synchronize even when they fail in lockstep.
    pub jitter_seed: u64,
    /// How much of each backoff may be jittered away, in per-mille
    /// (0 = pure exponential backoff, 500 = each wait is uniformly
    /// shortened by up to half). Kept as an integer so the policy
    /// stays `Eq`-comparable.
    pub jitter_per_mille: u32,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 4,
            initial_backoff: Duration::from_millis(2),
            backoff_factor: 2,
            attempt_timeout: Duration::from_millis(250),
            deadline: Duration::from_secs(2),
            jitter_seed: 0,
            jitter_per_mille: 0,
        }
    }
}

impl RetryPolicy {
    /// A single attempt with `timeout` as both the attempt and overall
    /// budget — the no-retry semantics of [`RpcClient::call`].
    pub fn single(timeout: Duration) -> Self {
        RetryPolicy {
            max_attempts: 1,
            initial_backoff: Duration::ZERO,
            backoff_factor: 1,
            attempt_timeout: timeout,
            deadline: timeout,
            jitter_seed: 0,
            jitter_per_mille: 0,
        }
    }

    /// Adds seeded backoff jitter: each retry's wait is shortened by a
    /// deterministic fraction of up to `per_mille`/1000, drawn from a
    /// pure function of `(seed, attempt)`. Synchronized clients with
    /// distinct seeds therefore retry at distinct times instead of
    /// stampeding an overloaded server in lockstep — while any one
    /// client's schedule stays byte-reproducible.
    ///
    /// # Panics
    ///
    /// Panics if `per_mille` exceeds 1000.
    #[must_use]
    pub fn with_jitter(mut self, seed: u64, per_mille: u32) -> Self {
        assert!(per_mille <= 1000, "jitter fraction {per_mille}‰ > 1000‰");
        self.jitter_seed = seed;
        self.jitter_per_mille = per_mille;
        self
    }

    /// The wait before attempt `attempt` (1-based: the wait taken
    /// after the `attempt`-th try failed) — a pure function of the
    /// policy and the attempt number, so the whole schedule can be
    /// precomputed and pinned by tests.
    ///
    /// Base is `initial_backoff * backoff_factor^(attempt-1)`; jitter
    /// subtracts `base * u * jitter_per_mille / 1000` where
    /// `u ∈ [0, 1)` is drawn from splitmix64 over
    /// `(jitter_seed, attempt)`.
    pub fn backoff_for(&self, attempt: u32) -> Duration {
        if attempt == 0 {
            return Duration::ZERO;
        }
        let factor = self.backoff_factor.max(1);
        let mut base = self.initial_backoff;
        for _ in 1..attempt {
            base = base.saturating_mul(factor);
        }
        if self.jitter_per_mille == 0 {
            return base;
        }
        // splitmix64 over (seed, attempt): cheap, seeded, stateless.
        let mut z = self
            .jitter_seed
            .wrapping_add(u64::from(attempt).wrapping_mul(0x9e37_79b9_7f4a_7c15));
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        // The per-mille actually subtracted: uniform in
        // [0, jitter_per_mille).
        let cut_pm = (z % 1000) * u64::from(self.jitter_per_mille) / 1000;
        let nanos = base.as_nanos().min(u128::from(u64::MAX)) as u64;
        let cut = (u128::from(nanos) * u128::from(cut_pm) / 1000) as u64;
        Duration::from_nanos(nanos - cut)
    }
}

/// Blocking RPC client used by the (simulated) lab computer.
///
/// Generic over the [`Transport`] so the fault layer can interpose;
/// defaults to the perfect-channel [`Duplex`].
#[derive(Debug)]
pub struct RpcClient<T: Transport = Duplex> {
    transport: T,
    codec: FrameCodec,
    next_id: u64,
    stats: FaultStats,
    scratch: Vec<u8>,
}

impl<T: Transport> RpcClient<T> {
    /// Wraps a transport endpoint.
    pub fn new(transport: T) -> Self {
        RpcClient {
            transport,
            codec: FrameCodec::new(),
            next_id: 0,
            stats: FaultStats::new(),
            scratch: Vec::new(),
        }
    }

    /// Attaches a shared [`FaultStats`] handle counting retries and
    /// timeouts observed by this client.
    #[must_use]
    pub fn with_stats(mut self, stats: FaultStats) -> Self {
        self.stats = stats;
        self
    }

    /// Sends `command` and blocks for its response — a single attempt,
    /// no retries.
    ///
    /// # Errors
    ///
    /// - [`RadError::RpcTimeout`] if no response arrives in `timeout`.
    /// - [`RadError::RpcDisconnected`] if the peer is gone.
    /// - [`RadError::Device`]-shaped failures come back as
    ///   [`RadError::Rpc`] with the fault text, since the fault crossed
    ///   the wire as a string — mirroring how RATracer logs remote
    ///   exceptions.
    pub fn call(&mut self, command: &Command, timeout: Duration) -> Result<Value, RadError> {
        self.call_with_retry(command, &RetryPolicy::single(timeout))
    }

    /// Sends `command` under `policy`: retryable failures re-attempt
    /// with exponential backoff, reusing the same idempotency token so
    /// the server can deduplicate.
    ///
    /// # Errors
    ///
    /// As [`RpcClient::call`], after the policy's attempts/deadline are
    /// exhausted.
    pub fn call_with_retry(
        &mut self,
        command: &Command,
        policy: &RetryPolicy,
    ) -> Result<Value, RadError> {
        let id = self.next_id;
        self.next_id += 1;
        let overall_deadline = Instant::now() + policy.deadline;
        let mut last_err = RadError::RpcTimeout("no response before deadline".into());
        for attempt in 0..policy.max_attempts.max(1) {
            if attempt > 0 {
                self.stats.note_retry();
                std::thread::sleep(policy.backoff_for(attempt));
            }
            let remaining = overall_deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                break;
            }
            // Send failures are terminal (disconnect).
            self.scratch.clear();
            self.encode_request(id, command);
            self.flush_scratch()?;
            let wait = remaining.min(policy.attempt_timeout);
            match self.await_result(id, wait) {
                Ok(result) => return result.map_err(RadError::Rpc),
                Err(e) if e.is_retryable() => {
                    self.stats.note_timeout();
                    last_err = e;
                }
                Err(e) => return Err(e),
            }
        }
        Err(last_err)
    }

    /// Issues a batch of commands with up to `depth` requests in
    /// flight, coalescing each window into a single transport write.
    ///
    /// Every command gets its own idempotency id; replies arrive in
    /// request order (the server executes sequentially), so results
    /// line up with `commands` positionally. Per-command device faults
    /// come back as the `Err(String)` arm of the inner result — they
    /// do not abort the batch, mirroring what a lock-step caller would
    /// observe one command at a time. On a retryable transport error
    /// the whole in-flight window is re-sent in one chunk; the
    /// server's [`DedupCache`] answers duplicates from memory, so no
    /// command can double-execute.
    ///
    /// # Errors
    ///
    /// As [`RpcClient::call`] for transport-level failures, after the
    /// policy's attempts are exhausted. The per-command deadline
    /// budget renews whenever the head of the window completes.
    pub fn call_pipelined(
        &mut self,
        commands: &[Command],
        policy: &RetryPolicy,
        depth: usize,
    ) -> Result<Vec<Result<Value, String>>, RadError> {
        let depth = depth.max(1);
        let ids: Vec<u64> = commands
            .iter()
            .map(|_| {
                let id = self.next_id;
                self.next_id += 1;
                id
            })
            .collect();
        let mut results: Vec<Option<Result<Value, String>>> = vec![None; commands.len()];
        let mut pending: VecDeque<usize> = VecDeque::new();
        let mut next = 0usize;
        let mut done = 0usize;
        let mut attempt = 0u32;
        let mut deadline = Instant::now() + policy.deadline;
        while done < commands.len() {
            // Top up the window, one coalesced write for all of it.
            if pending.len() < depth && next < commands.len() {
                self.scratch.clear();
                while pending.len() < depth && next < commands.len() {
                    self.encode_request(ids[next], &commands[next]);
                    pending.push_back(next);
                    next += 1;
                }
                self.flush_scratch()?;
            }
            let head = *pending
                .front()
                .expect("incomplete batch has requests in flight");
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                return Err(RadError::RpcTimeout("no response before deadline".into()));
            }
            match self.await_result(ids[head], remaining.min(policy.attempt_timeout)) {
                Ok(result) => {
                    results[head] = Some(result);
                    pending.pop_front();
                    done += 1;
                    attempt = 0;
                    deadline = Instant::now() + policy.deadline;
                }
                Err(e) if e.is_retryable() => {
                    self.stats.note_timeout();
                    attempt += 1;
                    if attempt >= policy.max_attempts.max(1) {
                        return Err(e);
                    }
                    self.stats.note_retry();
                    std::thread::sleep(policy.backoff_for(attempt));
                    // Re-send everything unacknowledged in one chunk;
                    // duplicates replay from the server's dedup cache.
                    self.scratch.clear();
                    for &i in &pending {
                        self.encode_request(ids[i], &commands[i]);
                    }
                    self.flush_scratch()?;
                }
                Err(e) => return Err(e),
            }
        }
        Ok(results
            .into_iter()
            .map(|r| r.expect("every command completed"))
            .collect())
    }

    /// Appends one framed request to the scratch buffer, borrowing the
    /// command: no allocation, no clone.
    fn encode_request(&mut self, id: u64, command: &Command) {
        let start = FrameCodec::begin_frame(&mut self.scratch);
        wire::encode_rpc_request(&mut self.scratch, id, command);
        FrameCodec::finish_frame(&mut self.scratch, start);
    }

    /// Sends the accumulated scratch frames as one chunk.
    fn flush_scratch(&mut self) -> Result<(), RadError> {
        let chunk = Bytes::copy_from_slice(&self.scratch);
        self.scratch.clear();
        self.transport.send(chunk)
    }

    /// Waits up to `timeout` for the response to `id`, skipping stale
    /// or undecodable frames (a corrupt response is treated as lost —
    /// the attempt times out and the retry machinery takes over).
    /// The outer result is transport-level; the inner is the remote
    /// command's own outcome.
    fn await_result(
        &mut self,
        id: u64,
        timeout: Duration,
    ) -> Result<Result<Value, String>, RadError> {
        let deadline = Instant::now() + timeout;
        loop {
            match self.codec.next_frame() {
                Ok(Some(frame)) => {
                    let Ok(response) = wire::decode_rpc_response(&frame) else {
                        // Corrupt response: discard buffered bytes and
                        // resync at the next chunk boundary.
                        self.codec.reset();
                        continue;
                    };
                    if response.id != id {
                        // A stale response from a timed-out earlier
                        // attempt: skip it and keep waiting for ours.
                        continue;
                    }
                    return Ok(response.result);
                }
                Ok(None) => {}
                Err(_) => {
                    // Corrupt length prefix: framing lost, drop the
                    // buffer and resync.
                    self.codec.reset();
                }
            }
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                return Err(RadError::RpcTimeout("receive timed out".into()));
            }
            let chunk = self.transport.recv(remaining)?;
            // Only an incomplete frame can be buffered here. If chunks
            // keep their boundaries it was damaged in flight.
            if self.transport.keeps_chunk_boundaries() {
                self.codec.reset();
            }
            self.codec.push(&chunk);
        }
    }
}

/// The declarative form of a [`RetryPolicy`] — the `retry` section of a
/// scenario document.
///
/// Durations are integer milliseconds so the JSON stays exact and the
/// round-trip `from_policy(to_policy(s)) == s` holds bit-for-bit.
///
/// ```json
/// {
///   "max_attempts": 4,
///   "initial_backoff_ms": 2,
///   "backoff_factor": 2,
///   "attempt_timeout_ms": 250,
///   "deadline_ms": 2000,
///   "jitter_seed": 7,
///   "jitter_per_mille": 500
/// }
/// ```
///
/// Every field is optional; absent fields take the
/// [`RetryPolicy::default`] value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetrySpec {
    /// Maximum number of attempts (first try included).
    pub max_attempts: u32,
    /// Wait before the first retry, in milliseconds.
    pub initial_backoff_ms: u64,
    /// Multiplier applied to the backoff after each retry.
    pub backoff_factor: u32,
    /// Response wait per attempt, in milliseconds.
    pub attempt_timeout_ms: u64,
    /// Overall budget for the call, in milliseconds.
    pub deadline_ms: u64,
    /// Seed of the deterministic jitter stream.
    pub jitter_seed: u64,
    /// Jitter fraction in per-mille (0..=1000).
    pub jitter_per_mille: u32,
}

impl RetrySpec {
    const FIELDS: &'static [&'static str] = &[
        "max_attempts",
        "initial_backoff_ms",
        "backoff_factor",
        "attempt_timeout_ms",
        "deadline_ms",
        "jitter_seed",
        "jitter_per_mille",
    ];

    /// Captures an existing hand-wired policy as a spec. Sub-millisecond
    /// duration components are truncated.
    pub fn from_policy(policy: &RetryPolicy) -> Self {
        RetrySpec {
            max_attempts: policy.max_attempts,
            initial_backoff_ms: policy.initial_backoff.as_millis() as u64,
            backoff_factor: policy.backoff_factor,
            attempt_timeout_ms: policy.attempt_timeout.as_millis() as u64,
            deadline_ms: policy.deadline.as_millis() as u64,
            jitter_seed: policy.jitter_seed,
            jitter_per_mille: policy.jitter_per_mille,
        }
    }

    /// Builds the [`RetryPolicy`] this spec describes.
    pub fn to_policy(&self) -> RetryPolicy {
        RetryPolicy {
            max_attempts: self.max_attempts,
            initial_backoff: Duration::from_millis(self.initial_backoff_ms),
            backoff_factor: self.backoff_factor,
            attempt_timeout: Duration::from_millis(self.attempt_timeout_ms),
            deadline: Duration::from_millis(self.deadline_ms),
            jitter_seed: self.jitter_seed,
            jitter_per_mille: self.jitter_per_mille,
        }
    }

    /// Parses the `retry` section of a scenario document. `ctx` is the
    /// dotted path of `value` for error messages.
    ///
    /// # Errors
    ///
    /// [`RadError::Spec`] on unknown fields, ill-typed values, a zero
    /// `max_attempts`, or `jitter_per_mille > 1000`.
    pub fn from_json(value: &serde_json::Value, ctx: &str) -> Result<Self, RadError> {
        let map = spec::obj(value, ctx)?;
        spec::known_fields(map, ctx, Self::FIELDS)?;
        let defaults = RetrySpec::from_policy(&RetryPolicy::default());
        let u32_field = |key: &str, default: u32| -> Result<u32, RadError> {
            match spec::opt_u64(map, ctx, key)? {
                None => Ok(default),
                Some(v) => u32::try_from(v).map_err(|_| {
                    RadError::spec(spec::path(ctx, key), format!("{v} exceeds u32 range"))
                }),
            }
        };
        let parsed = RetrySpec {
            max_attempts: u32_field("max_attempts", defaults.max_attempts)?,
            initial_backoff_ms: spec::opt_u64(map, ctx, "initial_backoff_ms")?
                .unwrap_or(defaults.initial_backoff_ms),
            backoff_factor: u32_field("backoff_factor", defaults.backoff_factor)?,
            attempt_timeout_ms: spec::opt_u64(map, ctx, "attempt_timeout_ms")?
                .unwrap_or(defaults.attempt_timeout_ms),
            deadline_ms: spec::opt_u64(map, ctx, "deadline_ms")?.unwrap_or(defaults.deadline_ms),
            jitter_seed: spec::opt_u64(map, ctx, "jitter_seed")?.unwrap_or(defaults.jitter_seed),
            jitter_per_mille: u32_field("jitter_per_mille", defaults.jitter_per_mille)?,
        };
        if parsed.max_attempts == 0 {
            return Err(RadError::spec(
                spec::path(ctx, "max_attempts"),
                "must be at least 1",
            ));
        }
        if parsed.jitter_per_mille > 1000 {
            return Err(RadError::spec(
                spec::path(ctx, "jitter_per_mille"),
                format!("{}‰ exceeds 1000‰", parsed.jitter_per_mille),
            ));
        }
        Ok(parsed)
    }

    /// Serializes the spec back to its JSON form, every field explicit.
    pub fn to_json(&self) -> serde_json::Value {
        let mut map = serde_json::Map::new();
        map.insert(
            "max_attempts".into(),
            serde_json::Value::from(u64::from(self.max_attempts)),
        );
        map.insert(
            "initial_backoff_ms".into(),
            serde_json::Value::from(self.initial_backoff_ms),
        );
        map.insert(
            "backoff_factor".into(),
            serde_json::Value::from(u64::from(self.backoff_factor)),
        );
        map.insert(
            "attempt_timeout_ms".into(),
            serde_json::Value::from(self.attempt_timeout_ms),
        );
        map.insert(
            "deadline_ms".into(),
            serde_json::Value::from(self.deadline_ms),
        );
        map.insert(
            "jitter_seed".into(),
            serde_json::Value::from(self.jitter_seed),
        );
        map.insert(
            "jitter_per_mille".into(),
            serde_json::Value::from(u64::from(self.jitter_per_mille)),
        );
        serde_json::Value::Object(map)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rad_core::CommandType;

    const T: Duration = Duration::from_secs(2);

    #[test]
    fn frame_codec_round_trips_chunked_input() {
        let payloads: [&[u8]; 3] = [b"a", b"hello world", &[0u8; 1000]];
        let mut stream = BytesMut::new();
        for p in payloads {
            stream.put_slice(&FrameCodec::encode(p));
        }
        // Feed in 7-byte chunks.
        let mut codec = FrameCodec::new();
        let mut decoded = Vec::new();
        for chunk in stream.chunks(7) {
            codec.push(chunk);
            while let Some(frame) = codec.next_frame().unwrap() {
                decoded.push(frame);
            }
        }
        assert_eq!(decoded.len(), 3);
        assert_eq!(decoded[1].as_ref(), b"hello world");
        assert_eq!(decoded[2].len(), 1000);
    }

    #[test]
    fn oversized_frame_is_rejected_and_poisons() {
        let mut codec = FrameCodec::new();
        codec.push(&(MAX_FRAME_BYTES as u32 + 1).to_be_bytes());
        let err = codec.next_frame().unwrap_err();
        assert!(
            matches!(err, RadError::FrameTooLarge { len, limit }
                if len == MAX_FRAME_BYTES + 1 && limit == MAX_FRAME_BYTES),
            "{err:?}"
        );
        // Poisoned: more bytes don't resurrect the stream, and the
        // error repeats verbatim...
        codec.push(&FrameCodec::encode(b"ok"));
        assert_eq!(codec.next_frame().unwrap_err(), err);
        // ...but an explicit reset does.
        codec.reset();
        codec.push(&FrameCodec::encode(b"ok"));
        assert_eq!(codec.next_frame().unwrap().unwrap().as_ref(), b"ok");
    }

    #[test]
    fn per_endpoint_frame_cap_is_tighter_than_the_default() {
        // A server capping client frames at 64 bytes rejects a frame
        // the trusted in-process default would accept.
        let frame = FrameCodec::encode(&[0u8; 100]);
        let mut tight = FrameCodec::with_max_frame(64);
        assert_eq!(tight.max_frame(), 64);
        tight.push(&frame);
        let err = tight.next_frame().unwrap_err();
        assert_eq!(
            err,
            RadError::FrameTooLarge {
                len: 100,
                limit: 64
            }
        );
        let mut default = FrameCodec::new();
        default.push(&frame);
        assert_eq!(default.next_frame().unwrap().unwrap().len(), 100);
    }

    #[test]
    fn backoff_jitter_is_a_pure_function_of_seed_and_attempt() {
        let policy = RetryPolicy::default().with_jitter(7, 500);
        // Pure: the same (seed, attempt) always yields the same wait.
        for attempt in 1..6 {
            assert_eq!(policy.backoff_for(attempt), policy.backoff_for(attempt));
        }
        // Bounded: never longer than the un-jittered wait, never
        // shorter than (1 - per_mille/1000) of it.
        let plain = RetryPolicy::default();
        for attempt in 1..6 {
            let base = plain.backoff_for(attempt);
            let jittered = policy.backoff_for(attempt);
            assert!(jittered <= base, "attempt {attempt}");
            assert!(jittered >= base / 2, "attempt {attempt}");
        }
        // Seeds de-synchronize: two clients failing in lockstep wait
        // different amounts somewhere in the schedule.
        let other = RetryPolicy::default().with_jitter(8, 500);
        let schedule = |p: &RetryPolicy| (1..8).map(|a| p.backoff_for(a)).collect::<Vec<_>>();
        assert_ne!(schedule(&policy), schedule(&other));
    }

    #[test]
    fn backoff_without_jitter_is_exact_exponential() {
        let policy = RetryPolicy {
            initial_backoff: Duration::from_millis(3),
            backoff_factor: 2,
            ..RetryPolicy::default()
        };
        assert_eq!(policy.backoff_for(0), Duration::ZERO);
        assert_eq!(policy.backoff_for(1), Duration::from_millis(3));
        assert_eq!(policy.backoff_for(2), Duration::from_millis(6));
        assert_eq!(policy.backoff_for(3), Duration::from_millis(12));
    }

    #[test]
    fn jitter_schedule_is_pinned() {
        // Regression pin: the exact jittered waits for seed 42 at 250‰
        // over a 10 ms base. If the splitmix64 mix ever changes, this
        // fails loudly instead of silently reshuffling every client's
        // retry schedule.
        let policy = RetryPolicy {
            initial_backoff: Duration::from_millis(10),
            backoff_factor: 2,
            ..RetryPolicy::default()
        }
        .with_jitter(42, 250);
        let nanos: Vec<u64> = (1..4)
            .map(|a| policy.backoff_for(a).as_nanos() as u64)
            .collect();
        assert_eq!(nanos, vec![8_970_000, 18_560_000, 31_440_000]);
    }

    #[test]
    fn empty_frame_round_trips() {
        let mut codec = FrameCodec::new();
        codec.push(&FrameCodec::encode(b""));
        assert_eq!(codec.next_frame().unwrap().unwrap().len(), 0);
    }

    #[test]
    fn call_executes_on_the_remote_rig() {
        let (client_side, server_side) = Duplex::pair();
        let server = RpcServer::spawn(LabRig::new(0), server_side);
        let mut client = RpcClient::new(client_side);
        client
            .call(&Command::nullary(CommandType::InitC9), T)
            .unwrap();
        client
            .call(&Command::nullary(CommandType::Home), T)
            .unwrap();
        drop(client);
        let rig = server.join().unwrap();
        assert!(
            rig.c9().is_homed(),
            "state changes happened on the server's rig"
        );
    }

    #[test]
    fn device_faults_cross_the_wire_as_exceptions() {
        let (client_side, server_side) = Duplex::pair();
        let _server = RpcServer::spawn(LabRig::new(0), server_side);
        let mut client = RpcClient::new(client_side);
        // Motion before homing raises InvalidState on the device.
        client
            .call(&Command::nullary(CommandType::InitC9), T)
            .unwrap();
        let err = client
            .call(
                &Command::new(
                    CommandType::Arm,
                    vec![Value::Location {
                        x: 10.0,
                        y: 0.0,
                        z: 200.0,
                    }],
                ),
                T,
            )
            .unwrap_err();
        assert!(err.to_string().contains("not homed"), "{err}");
    }

    #[test]
    fn sequential_calls_preserve_order() {
        let (client_side, server_side) = Duplex::pair();
        let _server = RpcServer::spawn(LabRig::new(0), server_side);
        let mut client = RpcClient::new(client_side);
        client
            .call(&Command::nullary(CommandType::InitTecan), T)
            .unwrap();
        client
            .call(&Command::nullary(CommandType::TecanSetHomePosition), T)
            .unwrap();
        // The homing move keeps Q busy for a few polls, then idle.
        let mut saw_idle = false;
        for _ in 0..32 {
            let v = client
                .call(&Command::nullary(CommandType::TecanGetStatus), T)
                .unwrap();
            if v == Value::Str("idle".into()) {
                saw_idle = true;
                break;
            }
        }
        assert!(saw_idle);
    }

    #[test]
    fn client_times_out_when_server_is_gone() {
        let (client_side, server_side) = Duplex::pair();
        drop(server_side);
        let mut client = RpcClient::new(client_side);
        let err = client
            .call(
                &Command::nullary(CommandType::InitIka),
                Duration::from_millis(50),
            )
            .unwrap_err();
        assert!(err.to_string().contains("disconnected") || err.to_string().contains("timed out"));
    }

    #[test]
    fn timeout_and_disconnect_are_distinguished() {
        // Peer alive but silent: timeout.
        let (alive, _peer) = Duplex::pair();
        let err = alive.recv(Duration::from_millis(20)).unwrap_err();
        assert!(matches!(err, RadError::RpcTimeout(_)), "{err:?}");
        assert!(err.is_retryable());
        // Peer gone: disconnect, immediately.
        let (dead, peer) = Duplex::pair();
        drop(peer);
        let err = dead.recv(Duration::from_secs(5)).unwrap_err();
        assert!(matches!(err, RadError::RpcDisconnected(_)), "{err:?}");
        assert!(!err.is_retryable());
    }

    #[test]
    fn server_returns_rig_on_disconnect() {
        let (client_side, server_side) = Duplex::pair();
        let server = RpcServer::spawn(LabRig::new(3), server_side);
        drop(client_side);
        // Joining must not hang.
        server.join().unwrap();
    }

    #[test]
    fn malformed_request_is_discarded_not_fatal() {
        let stats = FaultStats::new();
        let (client_side, server_side) = Duplex::pair();
        let _server = RpcServer::spawn_with_stats(LabRig::new(0), server_side, stats.clone());
        // Plain garbage, and a well-formed JSON request of the retired
        // JSON codec: neither is a frame, so neither executes.
        let json_request = br#"{"id":9,"command":{"command_type":"InitC9","args":[]}}"#;
        for garbage in [&b"not json at all"[..], json_request] {
            client_side.send(FrameCodec::encode(garbage)).unwrap();
        }
        // The server discards the garbage and keeps serving: a valid
        // call on the same connection still succeeds.
        let mut client = RpcClient::new(client_side);
        client
            .call(&Command::nullary(CommandType::InitIka), T)
            .unwrap();
        assert_eq!(stats.snapshot().executions, 1, "only the valid call ran");
    }

    #[test]
    fn retried_requests_execute_once() {
        let stats = FaultStats::new();
        let (client_side, server_side) = Duplex::pair();
        let _server = RpcServer::spawn_with_stats(LabRig::new(0), server_side, stats.clone());
        let mut client = RpcClient::new(client_side).with_stats(stats.clone());
        client
            .call(&Command::nullary(CommandType::InitC9), T)
            .unwrap();
        // Re-send the same request id by hand, as a retry would.
        let mut payload = Vec::new();
        wire::encode_rpc_request(&mut payload, 0, &Command::nullary(CommandType::InitC9));
        client.transport.send(FrameCodec::encode(&payload)).unwrap();
        // The replayed response arrives without a second execution.
        let replay = client.transport.recv(T).unwrap();
        assert!(!replay.is_empty());
        let snap = stats.snapshot();
        assert_eq!(snap.executions, 1, "{snap}");
        assert_eq!(snap.dedup_hits, 1, "{snap}");
    }

    #[test]
    fn dedup_cache_evicts_least_recently_used() {
        let mut cache = DedupCache::new(2);
        assert_eq!(cache.capacity(), 2);
        cache.insert(1, Bytes::from_static(b"a"));
        cache.insert(2, Bytes::from_static(b"b"));
        // Refresh 1, so 2 becomes the LRU entry.
        assert_eq!(cache.get(1).unwrap().as_ref(), b"a");
        assert_eq!(cache.insert(3, Bytes::from_static(b"c")), 1);
        assert!(cache.get(2).is_none());
        assert!(cache.get(1).is_some() && cache.get(3).is_some());
        assert_eq!(cache.len(), 2);
        cache.clear();
        assert!(cache.is_empty());
    }

    #[test]
    fn dedup_cache_recency_queue_stays_bounded() {
        let mut cache = DedupCache::new(4);
        for id in 0..4 {
            cache.insert(id, Bytes::from_static(b"x"));
        }
        // Hammer one id: stale observations must compact away instead
        // of growing the queue without bound.
        for _ in 0..10_000 {
            cache.get(2);
        }
        assert!(
            cache.order.len() <= 16,
            "queue grew to {}",
            cache.order.len()
        );
        // And the cache still evicts correctly afterwards.
        let evicted: u64 = (4..8)
            .map(|id| cache.insert(id, Bytes::from_static(b"y")))
            .sum();
        assert_eq!(evicted, 4);
        assert!(cache.get(2).is_none());
    }

    #[test]
    fn encode_into_matches_encode() {
        let mut pooled = Vec::new();
        FrameCodec::encode_into(b"hello", &mut pooled);
        FrameCodec::encode_into(b"", &mut pooled);
        let mut reference = Vec::new();
        reference.extend_from_slice(&FrameCodec::encode(b"hello"));
        reference.extend_from_slice(&FrameCodec::encode(b""));
        assert_eq!(pooled, reference);
    }

    #[test]
    fn pipelined_batch_matches_lock_step_results() {
        let run = |pipelined: bool| -> Vec<Result<Value, String>> {
            let (client_side, server_side) = Duplex::pair();
            let _server = RpcServer::spawn(LabRig::new(0), server_side);
            let mut client = RpcClient::new(client_side);
            let commands = vec![
                Command::nullary(CommandType::InitC9),
                Command::nullary(CommandType::Home),
                // Motion before homing would fault; after Home it works.
                Command::nullary(CommandType::Mvng),
                Command::nullary(CommandType::Temp),
            ];
            if pipelined {
                client
                    .call_pipelined(&commands, &RetryPolicy::default(), 3)
                    .unwrap()
            } else {
                commands
                    .iter()
                    .map(|c| match client.call(c, T) {
                        Ok(v) => Ok(v),
                        Err(RadError::Rpc(m)) => Err(m),
                        Err(other) => panic!("transport failure: {other}"),
                    })
                    .collect()
            }
        };
        assert_eq!(run(true), run(false));
    }

    #[test]
    fn pipelined_device_faults_do_not_abort_the_batch() {
        let (client_side, server_side) = Duplex::pair();
        let _server = RpcServer::spawn(LabRig::new(0), server_side);
        let mut client = RpcClient::new(client_side);
        let commands = vec![
            Command::nullary(CommandType::InitC9),
            // Not homed yet: the device rejects the motion.
            Command::new(
                CommandType::Arm,
                vec![Value::Location {
                    x: 10.0,
                    y: 0.0,
                    z: 200.0,
                }],
            ),
            Command::nullary(CommandType::Home),
        ];
        let results = client
            .call_pipelined(&commands, &RetryPolicy::default(), 8)
            .unwrap();
        assert!(results[0].is_ok());
        assert!(results[1].as_ref().unwrap_err().contains("not homed"));
        assert!(results[2].is_ok());
    }
}
