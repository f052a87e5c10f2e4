//! Wire codecs for the protocol messages: byte layouts whose length equals
//! [`WireSize::wire_bytes`] exactly, so the byte accounting the simulators
//! attribute per frame is what actually crosses the socket.
//!
//! Framing (see [`crate::tcp`]) is length-prefixed, so codecs never need
//! self-delimiting payloads: list lengths are derived from the frame length.
//! All integers are little-endian; the first `u32` is a message tag.

use rspan_distributed::transport::WireSize;
use rspan_distributed::{RemSpanMsg, RepairMsg};
use rspan_graph::Node;

/// A message that can cross a byte-oriented transport.  `encode` must
/// append exactly [`WireSize::wire_bytes`] bytes; `decode` must invert it.
pub trait WireCodec: WireSize + Sized {
    /// Appends this message's wire form to `buf`.
    fn encode(&self, buf: &mut Vec<u8>);

    /// Parses one message from exactly the bytes `encode` produced.
    /// `None` on malformed input (wrong tag, truncated lists).
    fn decode(buf: &[u8]) -> Option<Self>;
}

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

struct Reader<'a> {
    buf: &'a [u8],
}

impl<'a> Reader<'a> {
    fn u32(&mut self) -> Option<u32> {
        let (head, rest) = self.buf.split_first_chunk::<4>()?;
        self.buf = rest;
        Some(u32::from_le_bytes(*head))
    }

    fn u64(&mut self) -> Option<u64> {
        let (head, rest) = self.buf.split_first_chunk::<8>()?;
        self.buf = rest;
        Some(u64::from_le_bytes(*head))
    }

    /// Remaining bytes as a node list (4 bytes per id).
    fn nodes(&mut self) -> Option<Vec<Node>> {
        if !self.buf.len().is_multiple_of(4) {
            return None;
        }
        let mut out = Vec::with_capacity(self.buf.len() / 4);
        while !self.buf.is_empty() {
            out.push(self.u32()?);
        }
        Some(out)
    }

    /// Remaining bytes as an edge list (8 bytes per pair).
    fn edges(&mut self) -> Option<Vec<(Node, Node)>> {
        if !self.buf.len().is_multiple_of(8) {
            return None;
        }
        let mut out = Vec::with_capacity(self.buf.len() / 8);
        while !self.buf.is_empty() {
            let a = self.u32()?;
            let b = self.u32()?;
            out.push((a, b));
        }
        Some(out)
    }

    fn done(&self) -> bool {
        self.buf.is_empty()
    }
}

// RemSpanMsg: Hello = 8, LinkState = 12 + 4·len, TreeAdvert = 12 + 8·len.
const REMSPAN_HELLO: u32 = 0;
const REMSPAN_LINK_STATE: u32 = 1;
const REMSPAN_TREE_ADVERT: u32 = 2;

impl WireCodec for RemSpanMsg {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            RemSpanMsg::Hello(origin) => {
                put_u32(buf, REMSPAN_HELLO);
                put_u32(buf, *origin);
            }
            RemSpanMsg::LinkState(origin, list, ttl) => {
                put_u32(buf, REMSPAN_LINK_STATE);
                put_u32(buf, *origin);
                put_u32(buf, *ttl);
                for &v in list {
                    put_u32(buf, v);
                }
            }
            RemSpanMsg::TreeAdvert(origin, edges, ttl) => {
                put_u32(buf, REMSPAN_TREE_ADVERT);
                put_u32(buf, *origin);
                put_u32(buf, *ttl);
                for &(a, b) in edges {
                    put_u32(buf, a);
                    put_u32(buf, b);
                }
            }
        }
    }

    fn decode(buf: &[u8]) -> Option<Self> {
        let mut r = Reader { buf };
        match r.u32()? {
            REMSPAN_HELLO => {
                let origin = r.u32()?;
                r.done().then_some(RemSpanMsg::Hello(origin))
            }
            REMSPAN_LINK_STATE => {
                let origin = r.u32()?;
                let ttl = r.u32()?;
                Some(RemSpanMsg::LinkState(origin, r.nodes()?, ttl))
            }
            REMSPAN_TREE_ADVERT => {
                let origin = r.u32()?;
                let ttl = r.u32()?;
                Some(RemSpanMsg::TreeAdvert(origin, r.edges()?, ttl))
            }
            _ => None,
        }
    }
}

// RepairMsg: LinkState = 20 + 4·len, TreeAdvert = 20 + 8·len.
const REPAIR_LINK_STATE: u32 = 0;
const REPAIR_TREE_ADVERT: u32 = 1;

impl WireCodec for RepairMsg {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            RepairMsg::LinkState(epoch, origin, list, ttl) => {
                put_u32(buf, REPAIR_LINK_STATE);
                put_u64(buf, *epoch);
                put_u32(buf, *origin);
                put_u32(buf, *ttl);
                for &v in list.iter() {
                    put_u32(buf, v);
                }
            }
            RepairMsg::TreeAdvert(epoch, origin, edges, ttl) => {
                put_u32(buf, REPAIR_TREE_ADVERT);
                put_u64(buf, *epoch);
                put_u32(buf, *origin);
                put_u32(buf, *ttl);
                for &(a, b) in edges.iter() {
                    put_u32(buf, a);
                    put_u32(buf, b);
                }
            }
        }
    }

    fn decode(buf: &[u8]) -> Option<Self> {
        let mut r = Reader { buf };
        match r.u32()? {
            REPAIR_LINK_STATE => {
                let epoch = r.u64()?;
                let origin = r.u32()?;
                let ttl = r.u32()?;
                Some(RepairMsg::LinkState(epoch, origin, r.nodes()?.into(), ttl))
            }
            REPAIR_TREE_ADVERT => {
                let epoch = r.u64()?;
                let origin = r.u32()?;
                let ttl = r.u32()?;
                Some(RepairMsg::TreeAdvert(epoch, origin, r.edges()?.into(), ttl))
            }
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<M: WireCodec + std::fmt::Debug>(msg: M) -> M {
        let mut buf = Vec::new();
        msg.encode(&mut buf);
        assert_eq!(
            buf.len() as u64,
            msg.wire_bytes(),
            "encoded length must equal the accounted wire bytes for {msg:?}"
        );
        M::decode(&buf).expect("roundtrip decode")
    }

    #[test]
    fn remspan_roundtrips_at_accounted_size() {
        match roundtrip(RemSpanMsg::Hello(7)) {
            RemSpanMsg::Hello(7) => {}
            other => panic!("bad roundtrip: {other:?}"),
        }
        match roundtrip(RemSpanMsg::LinkState(3, vec![1, 4, 9], 2)) {
            RemSpanMsg::LinkState(3, list, 2) => assert_eq!(list, vec![1, 4, 9]),
            other => panic!("bad roundtrip: {other:?}"),
        }
        match roundtrip(RemSpanMsg::TreeAdvert(5, vec![(1, 2), (3, 4)], 1)) {
            RemSpanMsg::TreeAdvert(5, edges, 1) => assert_eq!(edges, vec![(1, 2), (3, 4)]),
            other => panic!("bad roundtrip: {other:?}"),
        }
        // Empty lists are legal frames.
        match roundtrip(RemSpanMsg::LinkState(0, vec![], 1)) {
            RemSpanMsg::LinkState(0, list, 1) => assert!(list.is_empty()),
            other => panic!("bad roundtrip: {other:?}"),
        }
    }

    #[test]
    fn repair_roundtrips_at_accounted_size() {
        match roundtrip(RepairMsg::LinkState(9, 0, vec![1, 2].into(), 2)) {
            RepairMsg::LinkState(9, 0, list, 2) => assert_eq!(list[..], [1, 2]),
            other => panic!("bad roundtrip: {other:?}"),
        }
        match roundtrip(RepairMsg::TreeAdvert(u64::MAX, 3, vec![(0, 1)].into(), 4)) {
            RepairMsg::TreeAdvert(u64::MAX, 3, edges, 4) => assert_eq!(edges[..], [(0, 1)]),
            other => panic!("bad roundtrip: {other:?}"),
        }
    }

    #[test]
    fn malformed_frames_are_rejected() {
        assert!(RepairMsg::decode(&[]).is_none());
        assert!(RepairMsg::decode(&99u32.to_le_bytes()).is_none());
        // A repair link-state whose list bytes are not a multiple of 4.
        let mut buf = Vec::new();
        RepairMsg::LinkState(1, 0, vec![2].into(), 1).encode(&mut buf);
        assert!(RepairMsg::decode(&buf[..buf.len() - 1]).is_none());
        // Trailing garbage after a Hello.
        let mut buf = Vec::new();
        RemSpanMsg::Hello(1).encode(&mut buf);
        buf.push(0);
        assert!(RemSpanMsg::decode(&buf).is_none());
    }
}
