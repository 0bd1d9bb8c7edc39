//! Property-style tests of the recovery algorithm's building blocks and of
//! full fault-injection runs on randomized configurations.
//!
//! The workspace carries no external property-testing dependency, so each
//! property runs as a loop over seeded [`DetRng`] cases with the same input
//! shapes and case counts the original formulation used; the seed is part
//! of every assertion message so a failure is replayable.

use flash::coherence::{L2Cache, LineAddr, NodeSet, Version};
use flash::core::View;
use flash::net::{
    channel_dependencies_acyclic, up_down_tables, Mesh2D, NodeId, RouterId, Topology, UGraph,
};
use flash::sim::DetRng;

fn mesh_graph(w: usize, h: usize) -> UGraph {
    let m = Mesh2D::new(w, h);
    UGraph::from_edges(m.num_routers(), m.links().iter().map(|l| (l.a.0, l.b.0)))
}

fn random_view(w: usize, h: usize, rng: &mut DetRng) -> View {
    let m = Mesh2D::new(w, h);
    let mut v = View::new();
    for i in 0..w * h {
        if rng.chance(0.5) {
            v.set_node_up(NodeId(i as u16));
        } else {
            v.set_node_down(NodeId(i as u16));
        }
    }
    for l in m.links() {
        if rng.chance(0.5) {
            v.set_link_up(l.a, l.b);
        } else {
            v.set_link_down(l.a, l.b);
        }
    }
    v
}

/// The dissemination merge is commutative and idempotent — the lattice
/// property the round exchange relies on.
#[test]
fn view_merge_is_a_join() {
    for case in 0..64u64 {
        let mut rng = DetRng::new(0x11EE ^ case);
        let a = random_view(4, 3, &mut rng);
        let b = random_view(4, 3, &mut rng);
        let c = random_view(4, 3, &mut rng);
        // Commutativity.
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(&ab, &ba, "case {case}");
        // Idempotence.
        let mut aa = a.clone();
        assert!(!aa.merge(&a.clone()), "case {case}");
        assert_eq!(&aa, &a, "case {case}");
        // Associativity.
        let mut ab_c = ab.clone();
        ab_c.merge(&c);
        let mut bc = b.clone();
        bc.merge(&c);
        let mut a_bc = a.clone();
        a_bc.merge(&bc);
        assert_eq!(&ab_c, &a_bc, "case {case}");
    }
}

/// up*/down* rerouting is deadlock-free and connects every pair of
/// routers that remains connected, for arbitrary failed link/router
/// sets on a mesh.
#[test]
fn up_down_is_safe_on_random_failures() {
    for case in 0..64u64 {
        let mut rng = DetRng::new(0x0DD0 ^ case);
        let dead_routers: Vec<u16> = (0..rng.index(4)).map(|_| rng.below(12) as u16).collect();
        let dead_links: Vec<usize> = (0..rng.index(5)).map(|_| rng.index(17)).collect();
        let m = Mesh2D::new(4, 3);
        let links = m.links();
        let mut alive = vec![true; 12];
        for r in &dead_routers {
            alive[*r as usize] = false;
        }
        let mut g = UGraph::new(12);
        for (i, l) in links.iter().enumerate() {
            if !dead_links.contains(&i) && alive[l.a.index()] && alive[l.b.index()] {
                g.add_edge(l.a.0, l.b.0);
            }
        }
        let Some(root) = (0..12u16).find(|&r| alive[r as usize]) else {
            continue;
        };
        let tables = up_down_tables(&g, &alive, RouterId(root));
        assert!(
            channel_dependencies_acyclic(&tables, &g, &alive),
            "case {case}"
        );
        // Connectivity: every pair in the root's component is routable.
        let dist = g.bfs_distances(root, &alive);
        for s in 0..12u16 {
            for d in 0..12u16 {
                if dist[s as usize] != u32::MAX && dist[d as usize] != u32::MAX {
                    assert!(
                        tables.route_length(RouterId(s), RouterId(d)).is_some(),
                        "case {case}: no route {s}->{d}"
                    );
                }
            }
        }
    }
}

/// The dissemination round bounds — the paper's `2h` and the tighter
/// center-based estimate — always cover the exact diameter of the live
/// cwn graph, and the center bound never exceeds `2h`.
#[test]
fn round_bound_covers_diameter() {
    let mut checked = 0u32;
    let mut case = 0u64;
    // Keep drawing until 64 connected configurations have been checked
    // (disconnected draws are outside the algorithm's operating assumption).
    while checked < 64 {
        let mut rng = DetRng::new(0xB00D ^ case);
        case += 1;
        let view = random_view(4, 4, &mut rng);
        let design = mesh_graph(4, 4);
        let g = view.cwn_graph(&design);
        let alive: Vec<bool> = (0..16u16)
            .map(|i| view.live_nodes().contains(NodeId(i)))
            .collect();
        if !g.live_connected(&alive) {
            continue;
        }
        checked += 1;
        let diam = g.exact_diameter(&alive);
        let bound = view.round_bound(&design);
        assert!(bound >= diam, "case {case}");
        let center = view.round_bound_center(&design);
        assert!(
            center >= diam,
            "case {case}: center bound sound: {center} >= {diam}"
        );
        assert!(
            center <= bound,
            "case {case}: center bound no worse than 2h"
        );
    }
}

/// Cache model invariants under random operation sequences: occupancy
/// never exceeds capacity, lookups agree with a reference map, and
/// flush returns exactly the dirty lines.
#[test]
fn cache_matches_reference_model() {
    for case in 0..64u64 {
        let mut rng = DetRng::new(0xCAC4E ^ case);
        let n_ops = 1 + rng.index(199);
        let ops: Vec<(u64, bool)> = (0..n_ops)
            .map(|_| (rng.below(64), rng.chance(0.5)))
            .collect();
        let mut cache = L2Cache::new(16);
        let mut reference: std::collections::HashMap<u64, (bool, Version)> =
            std::collections::HashMap::new();
        for (addr, write) in ops {
            let line = LineAddr(addr);
            match (cache.lookup(line), write) {
                (Some(l), true) if l.exclusive => {
                    let v = cache.store(line).unwrap();
                    reference.insert(addr, (true, v));
                }
                (Some(_), true) => {
                    cache.invalidate(line);
                    reference.remove(&addr);
                    let out = cache.insert(line, true, Version(addr as u32));
                    track_eviction(&mut reference, out);
                    let v = cache.store(line).unwrap();
                    reference.insert(addr, (true, v));
                }
                (Some(_), false) => {
                    cache.touch(line);
                }
                (None, write) => {
                    let out = cache.insert(line, write, Version(addr as u32));
                    track_eviction(&mut reference, out);
                    if write {
                        let v = cache.store(line).unwrap();
                        reference.insert(addr, (true, v));
                    } else {
                        reference.insert(addr, (false, Version(addr as u32)));
                    }
                }
            }
            assert!(cache.len() <= cache.capacity(), "case {case}");
            assert_eq!(cache.len(), reference.len(), "case {case}");
        }
        // Flush returns exactly the dirty set.
        let mut dirty_expected: Vec<u64> = reference
            .iter()
            .filter(|(_, (d, _))| *d)
            .map(|(a, _)| *a)
            .collect();
        dirty_expected.sort_unstable();
        let flushed: Vec<u64> = cache.flush_all().iter().map(|l| l.addr.0).collect();
        assert_eq!(flushed, dirty_expected, "case {case}");
        assert!(cache.is_empty(), "case {case}");
    }
}

/// NodeSet behaves like a reference set.
#[test]
fn nodeset_matches_reference() {
    for case in 0..64u64 {
        let mut rng = DetRng::new(0x5E7 ^ case);
        let n_ops = rng.index(200);
        let ops: Vec<(u16, bool)> = (0..n_ops)
            .map(|_| (rng.below(256) as u16, rng.chance(0.5)))
            .collect();
        let mut set = NodeSet::new();
        let mut reference = std::collections::BTreeSet::new();
        for (id, insert) in ops {
            if insert {
                assert_eq!(set.insert(NodeId(id)), reference.insert(id), "case {case}");
            } else {
                assert_eq!(set.remove(NodeId(id)), reference.remove(&id), "case {case}");
            }
            assert_eq!(set.len(), reference.len(), "case {case}");
        }
        let members: Vec<u16> = set.iter().map(|n| n.0).collect();
        let expected: Vec<u16> = reference.into_iter().collect();
        assert_eq!(members, expected, "case {case}");
    }
}

fn track_eviction(
    reference: &mut std::collections::HashMap<u64, (bool, Version)>,
    out: flash::coherence::InsertOutcome,
) {
    match out {
        flash::coherence::InsertOutcome::Installed => {}
        flash::coherence::InsertOutcome::EvictedClean(a) => {
            reference.remove(&a.0);
        }
        flash::coherence::InsertOutcome::EvictedDirty(l) => {
            reference.remove(&l.addr.0);
        }
    }
}

/// `FaultSpec::doomed_nodes` over random nested `Multi` values (including
/// the gray-failure arms) matches a reference recursion: fail-stop victims
/// and whole pools are doomed, gray faults doom nobody, and the result is
/// sorted and duplicate-free.
#[test]
fn doomed_nodes_matches_reference_over_nested_multis() {
    use flash::machine::FaultSpec;

    fn random_spec(rng: &mut DetRng, depth: usize) -> FaultSpec {
        let node = |rng: &mut DetRng| NodeId(rng.below(16) as u16);
        let router = |rng: &mut DetRng| RouterId(rng.below(16) as u16);
        let arms = if depth > 0 { 11 } else { 10 };
        match rng.below(arms) {
            0 => FaultSpec::Node(node(rng)),
            1 => FaultSpec::Router(router(rng)),
            2 => FaultSpec::Link(router(rng), router(rng)),
            3 => FaultSpec::InfiniteLoop(node(rng)),
            4 => FaultSpec::FirmwareAssertion(node(rng)),
            5 => FaultSpec::FalseAlarm(node(rng)),
            6 => FaultSpec::FailSlow(node(rng), 2 + rng.below(7) as u32),
            7 => FaultSpec::DegradedMemory(node(rng), rng.below(101) as u8, rng.below(2_000)),
            8 => FaultSpec::LossyLink(router(rng), router(rng), rng.below(100_000) as u32),
            9 => FaultSpec::PoolFailure {
                // Duplicates on purpose: the result must still dedup.
                pool: (0..1 + rng.index(4)).map(|_| node(rng)).collect(),
            },
            _ => FaultSpec::Multi(
                (0..1 + rng.index(3))
                    .map(|_| random_spec(rng, depth - 1))
                    .collect(),
            ),
        }
    }

    fn reference_doomed(f: &FaultSpec, out: &mut Vec<u16>) {
        match f {
            FaultSpec::Node(n) | FaultSpec::InfiniteLoop(n) | FaultSpec::FirmwareAssertion(n) => {
                out.push(n.0)
            }
            FaultSpec::Router(r) => out.push(r.0),
            FaultSpec::PoolFailure { pool } => out.extend(pool.iter().map(|n| n.0)),
            FaultSpec::Multi(list) => {
                for m in list {
                    reference_doomed(m, out);
                }
            }
            FaultSpec::Link(..)
            | FaultSpec::FalseAlarm(_)
            | FaultSpec::FailSlow(..)
            | FaultSpec::DegradedMemory(..)
            | FaultSpec::LossyLink(..) => {}
        }
    }

    fn is_gray_only(f: &FaultSpec) -> bool {
        match f {
            FaultSpec::FailSlow(..) | FaultSpec::DegradedMemory(..) | FaultSpec::LossyLink(..) => {
                true
            }
            FaultSpec::Multi(list) => list.iter().all(is_gray_only),
            _ => false,
        }
    }

    for case in 0..256u64 {
        let mut rng = DetRng::new(0xD00 ^ case);
        let spec = random_spec(&mut rng, 3);
        let doomed: Vec<u16> = spec.doomed_nodes().iter().map(|n| n.0).collect();
        let mut expected = Vec::new();
        reference_doomed(&spec, &mut expected);
        expected.sort_unstable();
        expected.dedup();
        assert_eq!(doomed, expected, "case {case}: {spec:?}");
        if is_gray_only(&spec) {
            assert!(doomed.is_empty(), "case {case}: gray-only {spec:?}");
        }
    }
}

/// Full randomized fault-injection runs validate cleanly (a randomized
/// micro Table 5.3 over machine shape, seed and fault type).
#[test]
fn randomized_experiments_validate() {
    use flash::core::{random_fault, run_fault_experiment, ExperimentConfig, FaultKind};
    use flash::machine::MachineParams;

    let shapes = [4usize, 6, 8];
    for case in 0..8u64 {
        let mut pick = DetRng::new(0xEC5 ^ case);
        let seed = pick.below(1_000);
        let kind_idx = pick.index(5);
        let n_nodes = *pick.choose(&shapes).expect("non-empty");

        let mut params = MachineParams::tiny();
        params.n_nodes = n_nodes;
        let mut rng = DetRng::new(seed);
        let fault = random_fault(FaultKind::ALL[kind_idx], n_nodes, &mut rng);
        let mut cfg = ExperimentConfig::new(params, seed);
        cfg.fill_ops = 120;
        cfg.total_ops = 350;
        let out = run_fault_experiment(&cfg, fault.clone());
        assert!(
            out.passed(),
            "case {case}: fault {:?} on {} nodes seed {}: {} / recovery completed: {}",
            fault,
            n_nodes,
            seed,
            out.validation,
            out.recovery.completed()
        );
    }
}
