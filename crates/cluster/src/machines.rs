//! Multi-machine placement: the machine states and the placement hash
//! behind [`ClusterIngest`](crate::net::ClusterIngest)'s routing table.
//!
//! A patient the router has no entry for is placed by `home`; the
//! router then walks past down machines with `walk_live`. The Fig. 10d
//! scale-out *model* is `lifestream_bench::machines`.

use crate::sharded::{splitmix64, PatientId};

/// Health of one machine endpoint, as
/// [`ClusterIngest::health`](crate::net::ClusterIngest::health) reports it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MachineState {
    /// Serving normally.
    Up,
    /// Still routable, but its client has had to reconnect — a machine
    /// to watch, and to prefer rebalancing *away from*.
    Degraded,
    /// Retries exhausted; no longer routable. Placement walks past it.
    Down,
}

impl MachineState {
    /// A machine's state: `Down` once it has failed over, `Degraded`
    /// while its endpoint is alive after at least one reconnect, `Up`
    /// otherwise.
    pub(crate) fn of(down: bool, alive: bool, reconnects: u64) -> Self {
        match (down, alive && reconnects > 0) {
            (true, _) => Self::Down,
            (false, true) => Self::Degraded,
            (false, false) => Self::Up,
        }
    }
}

/// The hash placement of a patient over `machines` (at least one)
/// endpoints.
///
/// It applies the shard router's splitmix64 *twice* so the two levels are
/// decorrelated: with the same hash at both levels, every patient placed
/// on machine `m` would satisfy `h ≡ m (mod machines)` and therefore
/// collapse onto the shard residues `m (mod gcd)` of its server, idling
/// the other ingest workers (with machines == workers, all of a machine's
/// patients would land on a single shard).
pub(crate) fn home(patient: PatientId, machines: usize) -> usize {
    (splitmix64(splitmix64(patient)) % machines as u64) as usize
}

/// The first machine from `preferred` on, wrapping around, that is not
/// `down`: every patient of a dead machine has a deterministic survivor.
/// With every machine down it is `preferred` itself.
pub(crate) fn walk_live(preferred: usize, down: &[bool]) -> usize {
    (0..down.len())
        .map(|d| (preferred + d) % down.len())
        .find(|&m| !down[m])
        .unwrap_or(preferred)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn placement_is_balanced_and_stable() {
        let mut seen = [0usize; 4];
        for p in 0..1000u64 {
            let m = home(p, 4);
            assert!(m < 4);
            assert_eq!(m, home(p, 4), "placement must be deterministic");
            seen[m] += 1;
        }
        for (m, &n) in seen.iter().enumerate() {
            assert!(n > 150, "machine {m} got {n}/1000 — hash collapsed");
        }
    }

    #[test]
    fn down_machines_are_walked_past_deterministically() {
        let mut down = [false; 3];
        assert_eq!(walk_live(1, &down), 1);
        down[1] = true;
        assert_eq!(walk_live(1, &down), 2, "walk forward from machine 1");
        assert_eq!(walk_live(0, &down), 0, "a live machine keeps its patients");
        down[2] = true;
        assert_eq!(walk_live(1, &down), 0, "the walk wraps around");
        down[0] = true;
        assert_eq!(walk_live(1, &down), 1, "no survivor: the preferred machine");
    }

    #[test]
    fn degraded_machines_stay_routable() {
        assert_eq!(MachineState::of(false, true, 1), MachineState::Degraded);
        assert_eq!(MachineState::of(false, true, 0), MachineState::Up);
        assert_eq!(MachineState::of(false, false, 1), MachineState::Up);
        assert_eq!(MachineState::of(true, false, 1), MachineState::Down);
        // Only the down flags steer the walk: a degraded machine is a
        // warning, not an eviction.
        assert_eq!(walk_live(0, &[false, false]), 0);
    }

    #[test]
    fn machine_placement_is_decorrelated_from_shard_routing() {
        // The regression this guards: with machine = h % M and shard =
        // h % W over the SAME hash and M == W, every patient of machine
        // m would land on shard m of its server, idling the rest. The
        // double-mix must spread one machine's patients across all shard
        // residues.
        let workers = 2u64;
        let mut shard_residues_on_machine0 = [0usize; 2];
        for p in 0..400u64 {
            if home(p, 2) == 0 {
                let shard = (splitmix64(p) % workers) as usize;
                shard_residues_on_machine0[shard] += 1;
            }
        }
        for (s, &n) in shard_residues_on_machine0.iter().enumerate() {
            assert!(
                n > 40,
                "shard residue {s} got {n} of machine 0's patients — \
                 machine and shard hashes are correlated"
            );
        }
    }
}
