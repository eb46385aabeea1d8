//! Multi-machine placement: the live routing table behind
//! [`ClusterIngest`](crate::net::ClusterIngest).
//!
//! [`PlacementTable`] decides which machine endpoint owns each patient,
//! defaulting to a balanced hash and recording explicit reassignments as
//! patients are handed off between machines mid-stream. The Fig. 10d
//! scale-out *model* is `lifestream_bench::machines`.

use std::collections::HashMap;

use crate::sharded::{splitmix64, PatientId};

/// Health of one machine endpoint, as the placement table sees it.
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

/// Live patient→machine routing table.
///
/// The default placement hashes the patient id to a machine, using a
/// *double* application of the shard router's splitmix64 so the two
/// levels are decorrelated: with the same hash at both levels, every
/// patient placed on machine `m` would satisfy `h ≡ m (mod machines)`
/// and therefore collapse onto the shard residues `m (mod gcd)` of its
/// server, idling the other ingest workers (with machines == workers,
/// all of a machine's patients would land on a single shard). A
/// partition handoff ([`ClusterIngest::rebalance`]) records an explicit
/// override; lookups stay O(1) either way.
///
/// [`ClusterIngest::rebalance`]: crate::net::ClusterIngest::rebalance
#[derive(Debug, Clone)]
pub struct PlacementTable {
    machines: usize,
    overrides: HashMap<PatientId, usize>,
    states: Vec<MachineState>,
}

impl PlacementTable {
    /// A table over `machines` endpoints (min 1), hash-balanced, with no
    /// overrides yet and every machine `Up`.
    pub fn new(machines: usize) -> Self {
        let machines = machines.max(1);
        Self {
            machines,
            overrides: HashMap::new(),
            states: vec![MachineState::Up; machines],
        }
    }

    /// Number of machine endpoints this table routes across.
    pub fn machines(&self) -> usize {
        self.machines
    }

    /// The health of one machine.
    ///
    /// # Panics
    /// Panics when `machine` is out of range.
    pub fn state(&self, machine: usize) -> MachineState {
        self.states[machine]
    }

    /// Records a machine's health. Marking a machine `Down` reroutes its
    /// patients on the next [`place`](Self::place) — the caller is
    /// responsible for actually moving their sessions (failover).
    ///
    /// # Panics
    /// Panics when `machine` is out of range.
    pub fn set_state(&mut self, machine: usize, state: MachineState) {
        assert!(
            machine < self.machines,
            "machine {machine} out of range ({} endpoints)",
            self.machines
        );
        self.states[machine] = state;
    }

    /// Machines currently routable (`Up` or `Degraded`).
    pub fn live_machines(&self) -> usize {
        self.states
            .iter()
            .filter(|s| !matches!(s, MachineState::Down))
            .count()
    }

    /// The machine a patient's stream routes to. A `Down` machine is
    /// never returned while any machine is live: the preferred placement
    /// (override or hash) walks forward to the next live machine, so
    /// every patient of a dead machine has a deterministic survivor.
    pub fn place(&self, patient: PatientId) -> usize {
        let preferred = self
            .overrides
            .get(&patient)
            .copied()
            .unwrap_or_else(|| self.default_place(patient));
        if self.states[preferred] != MachineState::Down {
            return preferred;
        }
        for d in 1..self.machines {
            let m = (preferred + d) % self.machines;
            if self.states[m] != MachineState::Down {
                return m;
            }
        }
        preferred
    }

    /// The hash placement ignoring overrides (re-mixed relative to the
    /// shard router — see the struct docs for why).
    pub fn default_place(&self, patient: PatientId) -> usize {
        let h = splitmix64(splitmix64(patient));
        (h % self.machines as u64) as usize
    }

    /// Pins a patient to a machine (recorded after a handoff). Assigning
    /// the hash-default placement clears the override instead of storing
    /// a redundant entry.
    ///
    /// # Panics
    /// Panics when `machine` is out of range.
    pub fn assign(&mut self, patient: PatientId, machine: usize) {
        assert!(
            machine < self.machines,
            "machine {machine} out of range ({} endpoints)",
            self.machines
        );
        if machine == self.default_place(patient) && self.states[machine] != MachineState::Down {
            self.overrides.remove(&patient);
        } else {
            self.overrides.insert(patient, machine);
        }
    }

    /// Number of patients currently pinned away from their hash
    /// placement.
    pub fn overridden(&self) -> usize {
        self.overrides.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn placement_is_balanced_stable_and_overridable() {
        let mut t = PlacementTable::new(4);
        let mut seen = [0usize; 4];
        for p in 0..1000u64 {
            let m = t.place(p);
            assert!(m < 4);
            assert_eq!(m, t.place(p), "placement must be deterministic");
            seen[m] += 1;
        }
        for (m, &n) in seen.iter().enumerate() {
            assert!(n > 150, "machine {m} got {n}/1000 — hash collapsed");
        }
        // A handoff pins the patient; re-assigning home clears the pin.
        let p = 42u64;
        let home = t.place(p);
        let away = (home + 1) % 4;
        t.assign(p, away);
        assert_eq!(t.place(p), away);
        assert_eq!(t.overridden(), 1);
        t.assign(p, home);
        assert_eq!(t.place(p), home);
        assert_eq!(t.overridden(), 0, "home assignment stores no override");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn placement_rejects_unknown_machines() {
        PlacementTable::new(2).assign(1, 2);
    }

    #[test]
    fn down_machines_are_walked_past_deterministically() {
        let mut t = PlacementTable::new(3);
        assert_eq!(t.live_machines(), 3);
        // Find a patient homed on machine 1, then take machine 1 down.
        let p = (0..1000u64).find(|&p| t.place(p) == 1).unwrap();
        t.set_state(1, MachineState::Down);
        assert_eq!(t.live_machines(), 2);
        let survivor = t.place(p);
        assert_ne!(survivor, 1, "down machine must not be routable");
        assert_eq!(survivor, 2, "walk forward from the preferred machine");
        assert_eq!(t.place(p), survivor, "reroute must be deterministic");
        // An override onto a down machine also reroutes.
        let q = (0..1000u64).find(|&q| t.place(q) == 0).unwrap();
        t.assign(q, 1);
        assert_ne!(t.place(q), 1);
        // Recovery restores the preferred placement.
        t.set_state(1, MachineState::Up);
        assert_eq!(t.place(p), 1);
        assert_eq!(t.place(q), 1);
    }

    #[test]
    fn degraded_machines_stay_routable() {
        let mut t = PlacementTable::new(2);
        let p = (0..100u64).find(|&p| t.place(p) == 0).unwrap();
        t.set_state(0, MachineState::Degraded);
        assert_eq!(t.place(p), 0, "degraded is a warning, not an eviction");
        assert_eq!(t.live_machines(), 2);
        assert_eq!(t.state(0), MachineState::Degraded);
    }

    #[test]
    fn assigning_home_on_a_down_machine_keeps_the_pin() {
        let mut t = PlacementTable::new(2);
        let p = (0..100u64).find(|&p| t.place(p) == 0).unwrap();
        t.set_state(0, MachineState::Down);
        // Pinning the patient to its (down) hash home must keep an
        // explicit override so the intent survives; routing still walks
        // to the survivor until the machine comes back.
        t.assign(p, 0);
        assert_eq!(t.place(p), 1);
        assert_eq!(t.overridden(), 1);
        t.set_state(0, MachineState::Up);
        assert_eq!(t.place(p), 0);
    }

    #[test]
    fn machine_placement_is_decorrelated_from_shard_routing() {
        // The regression this guards: with machine = h % M and shard =
        // h % W over the SAME hash and M == W, every patient of machine
        // m would land on shard m of its server, idling the rest. The
        // double-mix must spread one machine's patients across all shard
        // residues.
        let t = PlacementTable::new(2);
        let workers = 2u64;
        let mut shard_residues_on_machine0 = [0usize; 2];
        for p in 0..400u64 {
            if t.place(p) == 0 {
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
