//! The graph-section codec: the Social Store's graph with **exact adjacency order**.
//!
//! Adjacency order is observable state — deletions `swap_remove`, and random
//! neighbour sampling picks by position — so the snapshot serializes both directions
//! verbatim and `DynamicGraph::from_adjacency` revalidates that they describe the
//! same edge multiset on load.  Store metrics (fetch counters) are *not* persisted:
//! they are observability, and a restart legitimately starts them at zero.

use crate::io::{corrupt, ByteReader, ByteWriter, PersistResult, SPILL_BYTES};
use crate::snapshot::{check_shard_count, SHARD_COUNT};
use ppr_graph::{DynamicGraph, GraphView, NodeId};

/// Encodes `graph` as a graph-section payload, handed to `emit` in bounded chunks as
/// it is produced.  The bytes depend only on the lists, so every graph type holding
/// the same lists in the same order encodes identically.
pub fn encode_graph<G: GraphView + ?Sized>(
    graph: &G,
    mut emit: impl FnMut(&[u8]) -> PersistResult<()>,
) -> PersistResult<()> {
    let mut w = ByteWriter::with_capacity(SPILL_BYTES + 8);
    w.put_u32(SHARD_COUNT);
    w.put_u64(graph.node_count() as u64);
    w.put_u64(graph.edge_count() as u64);
    for direction in [true, false] {
        for node in graph.nodes() {
            let list = if direction {
                graph.out_neighbors(node)
            } else {
                graph.in_neighbors(node)
            };
            w.put_u32(list.len() as u32);
            for &v in list {
                w.put_u32(v.0);
                w.spill(SPILL_BYTES, &mut emit)?;
            }
            w.spill(SPILL_BYTES, &mut emit)?;
        }
    }
    w.spill(0, &mut emit)
}

/// Decodes a graph-section payload back into a graph.  A section written for a
/// store split across shards is refused with a `Format` error.
pub fn decode_graph(payload: &[u8]) -> PersistResult<DynamicGraph> {
    let mut r = ByteReader::new(payload);
    check_shard_count(r.get_u32()?, "graph section")?;
    let node_count = r.get_len()?;
    let edge_count = r.get_u64()?;
    let read_lists = |r: &mut ByteReader<'_>| -> PersistResult<Vec<Vec<NodeId>>> {
        let mut lists = Vec::with_capacity(node_count);
        for _ in 0..node_count {
            let len = r.get_u32()? as usize;
            // A corrupt length must fail as a short read, not as a multi-gigabyte
            // allocation attempt: each entry is 4 bytes, so bound by what remains.
            if len > r.remaining() / 4 {
                return Err(corrupt(format!(
                    "adjacency list claims {len} entries but only {} bytes remain",
                    r.remaining()
                )));
            }
            let mut list = Vec::with_capacity(len);
            for _ in 0..len {
                list.push(NodeId(r.get_u32()?));
            }
            lists.push(list);
        }
        Ok(lists)
    };
    let out_adj = read_lists(&mut r)?;
    let in_adj = read_lists(&mut r)?;
    r.expect_end("graph section")?;
    let graph = DynamicGraph::from_adjacency(out_adj, in_adj).map_err(corrupt)?;
    if graph.edge_count() as u64 != edge_count {
        return Err(corrupt(format!(
            "graph section claims {edge_count} edges but its lists hold {}",
            graph.edge_count()
        )));
    }
    Ok(graph)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppr_graph::Edge;

    fn encoded(graph: &DynamicGraph) -> Vec<u8> {
        let mut payload = Vec::new();
        encode_graph(graph, |chunk| {
            payload.extend_from_slice(chunk);
            Ok(())
        })
        .unwrap();
        payload
    }

    #[test]
    fn round_trip_preserves_order_and_shards() {
        let mut g = DynamicGraph::with_nodes(5);
        for e in [
            Edge::new(0, 3),
            Edge::new(0, 1),
            Edge::new(3, 0),
            Edge::new(0, 1),
            Edge::new(4, 4),
        ] {
            g.add_edge(e);
        }
        g.remove_edge(Edge::new(0, 3)); // swap_remove scrambles list order
        let payload = encoded(&g);
        // The shard-count field stays in the bytes, always 1.
        assert_eq!(payload[..4], 1u32.to_le_bytes());
        let decoded = decode_graph(&payload).unwrap();
        assert_eq!(decoded.edge_count(), g.edge_count());
        for node in g.nodes() {
            assert_eq!(decoded.out_neighbors(node), g.out_neighbors(node));
            assert_eq!(decoded.in_neighbors(node), g.in_neighbors(node));
        }
    }

    #[test]
    fn tampered_payloads_are_rejected() {
        let mut g = DynamicGraph::with_nodes(3);
        g.add_edge(Edge::new(0, 1));
        let clean = encoded(&g);
        // Claimed edge count diverges from the lists.
        let mut bad = clean.clone();
        bad[12] ^= 0x01;
        assert!(decode_graph(&bad).is_err());
        // Truncation.
        assert!(decode_graph(&clean[..clean.len() - 1]).is_err());
        // Any shard count but 1: zero, or a store split three ways.
        for shards in [0u32, 3] {
            let mut bad = clean.clone();
            bad[..4].copy_from_slice(&shards.to_le_bytes());
            assert!(matches!(
                decode_graph(&bad),
                Err(crate::io::PersistError::Format(_))
            ));
        }
    }
}
