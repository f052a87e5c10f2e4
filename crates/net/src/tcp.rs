//! The TCP loopback backend: the same worker loop as the threaded backend,
//! with frames crossing real `std::net` sockets.
//!
//! Architecture per node:
//!
//! * one `TcpListener` on `127.0.0.1:0` (ephemeral port; the cluster shares
//!   the address table),
//! * an **accept thread** that hands each inbound connection to a framed
//!   **reader thread**, which decodes frames and forwards them into the
//!   node's in-process command queue as `Deliver`s,
//! * lazily-established outbound connections: the first send to a peer
//!   connects and spawns a **writer thread** with a bounded queue; the
//!   worker enqueues encoded frames and never blocks on the socket itself.
//!   A writer that hits an I/O error reconnects (counted in
//!   `rspan_net_reconnects_total`) and resends; a frame abandoned after
//!   repeated failures releases its in-flight token so quiescence detection
//!   stays sound.
//!
//! Frame format: `[u32 len][u32 from][u64 sent_nanos]` little-endian, then
//! exactly `len` payload bytes — the [`WireCodec`] encoding whose length
//! equals `WireSize::wire_bytes`.  `sent_nanos` is on the shared
//! [`TickClock`] nanosecond base, giving the send-to-receive latency
//! histogram without cross-machine clock agreement (loopback only).
//! A header announcing more than the largest legal frame for the cluster's `n`
//! is rejected and its connection closed before any payload buffer grows.

use crate::clock::TickClock;
use crate::codec::WireCodec;
use crate::quiesce::InFlight;
use crate::worker::{Cluster, NodeCmd, Wire, Worker, WORKER_STACK};
use rspan_distributed::ProtocolNode;
use rspan_graph::Node;
use rspan_telemetry::{Counter, TelemetryHandle};
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Sender, SyncSender, TrySendError};
use std::sync::Arc;
use std::time::Duration;

/// Stack size for I/O helper threads (accept / reader / writer): they hold
/// a fixed buffer and shallow frames.
const IO_STACK: usize = 128 * 1024;

/// Bounded outbound queue depth per peer connection.
const WRITER_QUEUE: usize = 1024;

/// Reconnect attempts before a frame is abandoned.
const MAX_RECONNECTS: u32 = 5;

/// Header: `[u32 len][u32 from][u64 sent_nanos]`.
const HEADER_BYTES: usize = 16;

/// The largest legal payload on an `n`-node cluster: a repair tree advert
/// listing every edge of the complete graph, `20 + 8 · n(n − 1)/2` bytes.
/// It bounds every other frame too — a neighbour list holds at most `n − 1`
/// ids and the plain protocol's layouts are smaller than the repair ones.
fn max_frame_bytes(n: usize) -> u64 {
    let n = n as u64;
    20 + 4 * n * n.saturating_sub(1)
}

fn encode_frame<M: WireCodec>(from: Node, sent_nanos: u64, msg: &M) -> Vec<u8> {
    let payload = msg.wire_bytes() as usize;
    let mut buf = Vec::with_capacity(HEADER_BYTES + payload);
    buf.extend_from_slice(&(payload as u32).to_le_bytes());
    buf.extend_from_slice(&from.to_le_bytes());
    buf.extend_from_slice(&sent_nanos.to_le_bytes());
    msg.encode(&mut buf);
    debug_assert_eq!(buf.len(), HEADER_BYTES + payload);
    buf
}

/// Outbound side: lazily-connected per-peer writer threads.
struct TcpWire<P: ProtocolNode> {
    me: Node,
    addrs: Arc<Vec<SocketAddr>>,
    writers: HashMap<Node, SyncSender<Vec<u8>>>,
    inflight: Arc<InFlight>,
    tel: TelemetryHandle,
    _marker: std::marker::PhantomData<fn() -> P>,
}

impl<P: ProtocolNode> TcpWire<P> {
    fn writer_for(&mut self, to: Node) -> &SyncSender<Vec<u8>> {
        let addr = self.addrs[to as usize];
        let inflight = Arc::clone(&self.inflight);
        let tel = self.tel.clone();
        let me = self.me;
        self.writers.entry(to).or_insert_with(|| {
            let (tx, rx) = std::sync::mpsc::sync_channel::<Vec<u8>>(WRITER_QUEUE);
            std::thread::Builder::new()
                .name(format!("rspan-wr-{me}-{to}"))
                .stack_size(IO_STACK)
                .spawn(move || {
                    let mut stream = TcpStream::connect(addr).ok();
                    while let Ok(buf) = rx.recv() {
                        let mut attempts = 0;
                        loop {
                            let ok = match &mut stream {
                                Some(s) => s.write_all(&buf).is_ok(),
                                None => false,
                            };
                            if ok {
                                break;
                            }
                            attempts += 1;
                            if attempts > MAX_RECONNECTS {
                                // Abandon the frame but keep the counter
                                // sound: its token must not leak.
                                inflight.down();
                                break;
                            }
                            tel.incr(Counter::NetReconnects);
                            std::thread::sleep(Duration::from_millis(2 << attempts));
                            stream = TcpStream::connect(addr).ok();
                        }
                    }
                    // Channel closed: worker stopped; the socket closes with
                    // the thread, signalling EOF to the peer's reader.
                })
                .expect("spawn writer thread");
            tx
        })
    }
}

impl<P: ProtocolNode> Wire<P> for TcpWire<P>
where
    P::Msg: WireCodec,
{
    fn post(&mut self, to: Node, from: Node, msg: &P::Msg, sent_nanos: u64) {
        let buf = encode_frame(from, sent_nanos, msg);
        let tx = self.writer_for(to);
        match tx.try_send(buf) {
            Ok(()) => {}
            Err(TrySendError::Full(buf)) => {
                // Bounded queue full: block until the writer drains (the
                // backpressure path; the worker is allowed to block here).
                if tx.send(buf).is_err() {
                    self.inflight.down();
                }
            }
            Err(TrySendError::Disconnected(_)) => {
                // Writer thread died (exhausted reconnects and exited via
                // channel close at teardown); release the frame's token.
                self.inflight.down();
            }
        }
    }
}

/// Reads length-prefixed frames off one accepted connection and forwards
/// them into the node's command queue.  A header announcing more than
/// `max_len` payload bytes closes the connection: no honest peer sends one,
/// and trusting it would let one bad header allocate up to 4 GiB.
fn reader_loop<P>(mut stream: TcpStream, tx: Sender<NodeCmd<P>>, max_len: u64)
where
    P: ProtocolNode,
    P::Msg: WireCodec,
{
    let mut header = [0u8; HEADER_BYTES];
    let mut payload = Vec::new();
    loop {
        if stream.read_exact(&mut header).is_err() {
            return; // EOF: peer closed (teardown) or connection reset
        }
        let len = u32::from_le_bytes(header[0..4].try_into().unwrap());
        if u64::from(len) > max_len {
            return; // dropping the stream closes the connection
        }
        let len = len as usize;
        let from = u32::from_le_bytes(header[4..8].try_into().unwrap());
        let sent_nanos = u64::from_le_bytes(header[8..16].try_into().unwrap());
        payload.resize(len, 0);
        if stream.read_exact(&mut payload).is_err() {
            return;
        }
        let Some(msg) = P::Msg::decode(&payload) else {
            debug_assert!(false, "malformed frame from {from}");
            continue;
        };
        if tx
            .send(NodeCmd::Deliver {
                from,
                msg,
                sent_nanos,
            })
            .is_err()
        {
            return; // worker already stopped
        }
    }
}

/// Spawns the TCP loopback backend: `n` node workers, each with a listener,
/// accept thread and framed reader threads; frames cross real sockets.
///
/// The returned [`Cluster`] is driven exactly like the threaded one —
/// `inject`/`set_link` travel in-process (they are harness controls, not
/// protocol traffic); only protocol frames use TCP.
pub fn spawn_tcp<P, F>(
    neighbors: Vec<Vec<Node>>,
    mut make_node: F,
    tick: Duration,
    tel: TelemetryHandle,
) -> Cluster<P>
where
    P: ProtocolNode + Send + 'static,
    P::Msg: WireCodec + Send + 'static,
    F: FnMut(Node) -> P,
{
    let n = neighbors.len();
    let max_len = max_frame_bytes(n);
    let clock = Arc::new(TickClock::new(tick));
    let inflight = Arc::new(InFlight::new(tel.clone()));
    let shutdown = Arc::new(AtomicBool::new(false));

    // Bind every listener first so the address table is complete before any
    // worker can send.
    let listeners: Vec<TcpListener> = (0..n)
        .map(|_| TcpListener::bind(("127.0.0.1", 0)).expect("bind loopback listener"))
        .collect();
    let addrs: Arc<Vec<SocketAddr>> = Arc::new(
        listeners
            .iter()
            .map(|l| l.local_addr().expect("listener addr"))
            .collect(),
    );

    let (senders, receivers): (Vec<_>, Vec<_>) = (0..n).map(|_| std::sync::mpsc::channel()).unzip();

    // Accept loops: one per node, handing connections to reader threads.
    let mut accept_handles = Vec::with_capacity(n);
    for (v, listener) in listeners.into_iter().enumerate() {
        let tx = senders[v].clone();
        let shutdown = Arc::clone(&shutdown);
        accept_handles.push(
            std::thread::Builder::new()
                .name(format!("rspan-acc-{v}"))
                .stack_size(IO_STACK)
                .spawn(move || {
                    while let Ok((stream, _)) = listener.accept() {
                        if shutdown.load(Ordering::SeqCst) {
                            return;
                        }
                        let tx = tx.clone();
                        // Readers exit on EOF when the peer's writer closes;
                        // they are not joined.
                        let _ = std::thread::Builder::new()
                            .name("rspan-rd".to_owned())
                            .stack_size(IO_STACK)
                            .spawn(move || reader_loop::<P>(stream, tx, max_len));
                    }
                })
                .expect("spawn accept thread"),
        );
    }

    // Node workers, identical loop to the threaded backend; only the wire
    // differs.
    let mut handles = Vec::with_capacity(n);
    for (v, rx) in receivers.into_iter().enumerate() {
        let mut nbrs = neighbors[v].clone();
        nbrs.sort_unstable();
        let wire: TcpWire<P> = TcpWire {
            me: v as Node,
            addrs: Arc::clone(&addrs),
            writers: HashMap::new(),
            inflight: Arc::clone(&inflight),
            tel: tel.clone(),
            _marker: std::marker::PhantomData,
        };
        let worker = Worker::new(
            v as Node,
            make_node(v as Node),
            rx,
            wire,
            nbrs,
            Arc::clone(&clock),
            Arc::clone(&inflight),
            tel.clone(),
        );
        handles.push(
            std::thread::Builder::new()
                .name(format!("rspan-node-{v}"))
                .stack_size(WORKER_STACK)
                .spawn(move || worker.run())
                .expect("spawn node worker"),
        );
    }

    // Teardown: set the flag, then poke every listener with a throwaway
    // connection so the blocking accept wakes and observes it.
    let addrs_for_teardown = Arc::clone(&addrs);
    let teardown = Box::new(move || {
        shutdown.store(true, Ordering::SeqCst);
        for &addr in addrs_for_teardown.iter() {
            let _ = TcpStream::connect(addr);
        }
        for h in accept_handles {
            let _ = h.join();
        }
    });

    Cluster::from_parts(senders, handles, inflight, clock, Some(teardown))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rspan_distributed::{RepairMsg, RepairNode, WireSize};
    use std::sync::mpsc::channel;

    #[test]
    fn frame_cap_covers_the_largest_legal_frames() {
        let n = 5;
        let complete: Vec<(Node, Node)> = (0..n)
            .flat_map(|a| (a + 1..n).map(move |b| (a, b)))
            .collect();
        let tree = RepairMsg::TreeAdvert(u64::MAX, 0, complete.into(), u32::MAX);
        assert_eq!(tree.wire_bytes(), max_frame_bytes(n as usize));
        let list = RepairMsg::LinkState(u64::MAX, 0, (1..n).collect::<Vec<_>>().into(), 1);
        assert!(list.wire_bytes() <= max_frame_bytes(n as usize));
        assert_eq!(max_frame_bytes(1), 20);
        assert_eq!(max_frame_bytes(0), 20);
    }

    #[test]
    fn oversized_header_closes_the_connection() {
        let listener = TcpListener::bind(("127.0.0.1", 0)).expect("bind loopback");
        let addr = listener.local_addr().unwrap();
        let (tx, rx) = channel::<NodeCmd<RepairNode>>();
        let reader = std::thread::spawn(move || {
            let (stream, _) = listener.accept().expect("accept");
            reader_loop::<RepairNode>(stream, tx, max_frame_bytes(4));
        });
        let mut client = TcpStream::connect(addr).expect("connect");
        client
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        // One legal frame first: it must still be delivered.
        let legal = RepairMsg::LinkState(1, 2, vec![0, 3].into(), 2);
        client.write_all(&encode_frame(2, 0, &legal)).unwrap();
        // Then a header claiming a 4 GiB payload.
        let mut bad = Vec::new();
        bad.extend_from_slice(&u32::MAX.to_le_bytes());
        bad.extend_from_slice(&1u32.to_le_bytes());
        bad.extend_from_slice(&0u64.to_le_bytes());
        client.write_all(&bad).unwrap();
        reader.join().expect("reader returns instead of allocating");
        let mut buf = [0u8; 1];
        assert_eq!(client.read(&mut buf).unwrap(), 0, "connection closed");
        match rx.recv().expect("the legal frame was forwarded") {
            NodeCmd::Deliver { from: 2, msg, .. } => {
                assert!(matches!(msg, RepairMsg::LinkState(1, 2, ref l, 2) if l[..] == [0, 3]));
            }
            _ => panic!("expected the legal frame"),
        }
        assert!(rx.recv().is_err(), "nothing after the rejected header");
    }
}
