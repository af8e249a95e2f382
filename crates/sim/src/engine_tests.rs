//! Round-runtime regression tests.
//!
//! These pin the runtime's observable contract — flooding against the
//! centralized BFS references, round counting, the error cases and the
//! one-message-per-edge rule — through the public
//! [`Executor`](crate::executor::Executor) API. They live in a module of
//! their own, named `engine` after the round engine they were first
//! written against, so their names stay stable however the executor's
//! internals change.

#[cfg(test)]
mod tests {
    use crate::executor::{BatchProtocol, Control, EngineError, Executor, Inbox, Outlet, Run};
    use crate::node::NodeContext;
    use crate::protocols::{BfsOutput, BfsProtocol};
    use locality_graph::prelude::*;

    /// BFS flooding from `sources`; every node halts at `deadline`.
    fn flood(g: &Graph, sources: &[usize], deadline: u32) -> Run<BfsOutput> {
        let ids = IdAssignment::sequential(g.node_count());
        let nodes = (0..g.node_count()).map(|v| BfsProtocol::new(sources.contains(&v), deadline));
        Executor::congest(g, &ids)
            .run(nodes, deadline + 1)
            .expect("run completes")
    }

    #[test]
    fn flooding_matches_bfs() {
        let g = Graph::grid(4, 5);
        let run = flood(&g, &[0], 30);
        let reference = bfs_distances(&g, 0);
        for v in g.nodes() {
            assert_eq!(run.outputs[v].0, reference[v], "node {v}");
        }
        assert!(run.meter.congest_clean());
        assert!(run.meter.messages > 0);
    }

    #[test]
    fn multi_source_flooding() {
        let g = Graph::path(9);
        let run = flood(&g, &[0, 8], 20);
        let (reference, _) = multi_source_bfs(&g, &[0, 8]);
        for v in g.nodes() {
            assert_eq!(run.outputs[v].0, reference[v], "node {v}");
        }
    }

    #[test]
    fn unreachable_nodes_report_none() {
        let g = Graph::disjoint_union(&[Graph::path(3), Graph::path(3)]);
        let run = flood(&g, &[0], 10);
        assert_eq!(run.outputs[5], (None, None));
        assert_eq!(run.outputs[2].0, Some(2));
    }

    #[test]
    fn round_limit_error() {
        #[derive(Debug, Clone)]
        struct Forever;
        impl BatchProtocol for Forever {
            type Message = bool;
            type Output = ();
            fn start(&mut self, _: &NodeContext, _: &mut Outlet<'_, bool>) {}
            fn round(
                &mut self,
                _: &NodeContext,
                _: u32,
                _: &Inbox<'_, bool>,
                _: &mut Outlet<'_, bool>,
            ) -> Control<()> {
                Control::Continue
            }
        }
        let g = Graph::path(2);
        let ids = IdAssignment::sequential(2);
        let err = Executor::local(&g, &ids)
            .run([Forever, Forever], 5)
            .unwrap_err();
        assert_eq!(
            err,
            EngineError::RoundLimit {
                limit: 5,
                still_running: 2
            }
        );
        assert!(err.to_string().contains('5'));
    }

    #[test]
    fn wrong_node_count_error() {
        #[derive(Debug, Clone)]
        struct Noop;
        impl BatchProtocol for Noop {
            type Message = bool;
            type Output = ();
            fn start(&mut self, _: &NodeContext, _: &mut Outlet<'_, bool>) {}
            fn round(
                &mut self,
                _: &NodeContext,
                _: u32,
                _: &Inbox<'_, bool>,
                _: &mut Outlet<'_, bool>,
            ) -> Control<()> {
                Control::Halt(())
            }
        }
        let g = Graph::path(3);
        let ids = IdAssignment::sequential(3);
        let err = Executor::local(&g, &ids).run([Noop], 5).unwrap_err();
        assert!(matches!(
            err,
            EngineError::WrongNodeCount {
                got: 1,
                expected: 3
            }
        ));
    }

    #[test]
    fn directed_overrides_broadcast() {
        // Node 0 broadcasts 1 but sends 9 on port 0; its single neighbor
        // must receive only the directed message.
        #[derive(Debug, Clone)]
        struct Sender;
        impl BatchProtocol for Sender {
            type Message = u8;
            type Output = Vec<u8>;
            fn start(&mut self, ctx: &NodeContext, out: &mut Outlet<'_, u8>) {
                if ctx.node == 0 {
                    out.broadcast(1);
                    out.send(0, 9);
                }
            }
            fn round(
                &mut self,
                _: &NodeContext,
                _: u32,
                inbox: &Inbox<'_, u8>,
                _: &mut Outlet<'_, u8>,
            ) -> Control<Vec<u8>> {
                Control::Halt(inbox.iter().map(|(_, &m)| m).collect())
            }
        }
        let g = Graph::path(2);
        let ids = IdAssignment::sequential(2);
        let run = Executor::local(&g, &ids).run([Sender, Sender], 3).unwrap();
        assert_eq!(run.outputs[1], vec![9]);
        assert_eq!(run.outputs[0], Vec::<u8>::new());
    }

    #[test]
    fn rounds_counted() {
        let g = Graph::path(5);
        let run = flood(&g, &[0], 12);
        assert_eq!(run.meter.rounds, 12); // nodes halt at the quiet deadline
    }

    #[test]
    fn duplicate_directed_port_keeps_last_message() {
        // One message per edge per round is structural in the arena layout:
        // sending on a port twice delivers (and meters) only the last one.
        #[derive(Debug, Clone)]
        struct Dup;
        impl BatchProtocol for Dup {
            type Message = u8;
            type Output = Vec<u8>;
            fn start(&mut self, ctx: &NodeContext, out: &mut Outlet<'_, u8>) {
                if ctx.node == 0 {
                    out.send(0, 1);
                    out.send(0, 2);
                }
            }
            fn round(
                &mut self,
                _: &NodeContext,
                _: u32,
                inbox: &Inbox<'_, u8>,
                _: &mut Outlet<'_, u8>,
            ) -> Control<Vec<u8>> {
                Control::Halt(inbox.iter().map(|(_, &m)| m).collect())
            }
        }
        let g = Graph::path(2);
        let ids = IdAssignment::sequential(2);
        let run = Executor::local(&g, &ids).run([Dup, Dup], 3).unwrap();
        assert_eq!(run.outputs[1], vec![2]);
        assert_eq!(run.meter.messages, 1);
    }
}
