//! Per-server job types: placement errors and running-job state.

use crate::resources::Resources;

/// Why a job could not be placed on a server.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlacementError {
    /// Not enough free CPU or memory.
    InsufficientResources,
    /// The job id is already running on this server.
    DuplicateJob,
}

impl std::fmt::Display for PlacementError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlacementError::InsufficientResources => write!(f, "insufficient resources"),
            PlacementError::DuplicateJob => write!(f, "job already placed here"),
        }
    }
}

impl std::error::Error for PlacementError {}

/// Execution state of one job on a server.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunningJob {
    /// Resources the job holds while running.
    pub resources: Resources,
    /// Remaining *nominal* work in milliseconds (at full frequency).
    pub remaining_ms: f64,
}

/// The per-server job lifecycle, driven through [`crate::Cluster`].
#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Cluster, ClusterSpec, JobId, ServerId};
    use ampere_power::DvfsState;
    use ampere_sim::SimDuration;

    const ID: ServerId = ServerId::new(0);

    fn job(i: u64) -> JobId {
        JobId::new(i)
    }

    fn cluster_with(jobs: &[(u64, u64)]) -> Cluster {
        let mut c = Cluster::new(ClusterSpec::tiny());
        for &(j, mins) in jobs {
            c.server_mut(ID)
                .place(
                    job(j),
                    Resources::cores_gb(4, 8),
                    SimDuration::from_mins(mins),
                )
                .unwrap();
        }
        c
    }

    #[test]
    fn placement_accounting() {
        let mut c = cluster_with(&[]);
        let r = Resources::cores_gb(8, 16);
        c.server_mut(ID)
            .place(job(1), r, SimDuration::from_mins(5))
            .unwrap();
        let s = c.server(ID);
        assert_eq!(s.allocated(), r);
        assert_eq!(s.free(), Resources::cores_gb(24, 112));
        assert_eq!(s.job_count(), 1);
        assert!((s.utilization() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn rejects_overcommit_and_duplicates() {
        let mut c = cluster_with(&[]);
        let r = Resources::cores_gb(20, 16);
        let mut s = c.server_mut(ID);
        s.place(job(1), r, SimDuration::from_mins(5)).unwrap();
        assert_eq!(
            s.place(job(2), r, SimDuration::from_mins(5)),
            Err(PlacementError::InsufficientResources)
        );
        assert_eq!(
            s.place(job(1), Resources::cores_gb(1, 1), SimDuration::from_mins(5)),
            Err(PlacementError::DuplicateJob)
        );
    }

    /// Places `j` on server 0 and checks the verdict against a scan of
    /// the server's live jobs, whichever path `place` took.
    fn place_checked(
        c: &mut Cluster,
        j: u64,
        r: Resources,
        mins: u64,
    ) -> Result<(), PlacementError> {
        let live = c.server(ID).jobs().any(|(id, _)| id == job(j));
        let got = c
            .server_mut(ID)
            .place(job(j), r, SimDuration::from_mins(mins));
        assert_eq!(got == Err(PlacementError::DuplicateJob), live, "job {j}");
        got
    }

    #[test]
    fn duplicate_check_agrees_with_a_full_scan() {
        let mut c = cluster_with(&[]);
        let small = Resources::cores_gb(1, 1);
        // Descending ids: every one after the first is below the
        // server's largest id so far. Even ids finish in one minute.
        for j in (10..20).rev() {
            place_checked(&mut c, j, small, if j % 2 == 0 { 1 } else { 5 }).unwrap();
        }
        for j in 10..20 {
            assert_eq!(
                place_checked(&mut c, j, small, 1),
                Err(PlacementError::DuplicateJob)
            );
        }
        assert_eq!(c.advance(SimDuration::MINUTE).len(), 5);
        // A completed id may run again on the same server.
        place_checked(&mut c, 12, small, 1).unwrap();
        // So may an id below the server's largest that never ran here.
        place_checked(&mut c, 5, small, 1).unwrap();
        // A live id is a duplicate even when it also would not fit:
        // the duplicate check comes first.
        let huge = Resources::cores_gb(64, 1);
        assert_eq!(
            place_checked(&mut c, 11, huge, 1),
            Err(PlacementError::DuplicateJob)
        );
        assert_eq!(
            place_checked(&mut c, 13, huge, 1),
            Err(PlacementError::DuplicateJob)
        );
        assert_eq!(
            place_checked(&mut c, 14, huge, 1),
            Err(PlacementError::InsufficientResources)
        );
        assert_eq!(
            place_checked(&mut c, 21, huge, 1),
            Err(PlacementError::InsufficientResources)
        );
        assert_eq!(c.server(ID).job_count(), 7);
    }

    #[test]
    fn jobs_complete_after_duration() {
        let mut c = cluster_with(&[(1, 3)]);
        assert!(c.advance(SimDuration::MINUTE).is_empty());
        assert!(c.advance(SimDuration::MINUTE).is_empty());
        assert_eq!(c.advance(SimDuration::MINUTE), vec![(ID, job(1))]);
        assert_eq!(c.server(ID).allocated(), Resources::ZERO);
        assert_eq!(c.server(ID).utilization(), 0.0);
    }

    #[test]
    fn dvfs_slows_job_progress() {
        let mut c = cluster_with(&[(1, 2)]);
        c.server_mut(ID).set_dvfs(DvfsState::at(0.5));
        // At half speed a 2-minute job needs 4 minutes.
        for _ in 0..3 {
            assert!(c.advance(SimDuration::MINUTE).is_empty());
        }
        assert_eq!(c.advance(SimDuration::MINUTE), vec![(ID, job(1))]);
    }

    #[test]
    fn power_tracks_utilization() {
        let mut c = cluster_with(&[]);
        let idle = c.server(ID).power_w();
        assert!((idle - c.server(ID).power_model().idle_w()).abs() < 1e-9);
        c.server_mut(ID)
            .place(
                job(1),
                Resources::cores_gb(32, 64),
                SimDuration::from_mins(5),
            )
            .unwrap();
        assert!((c.server(ID).power_w() - c.server(ID).rated_w()).abs() < 1e-9);
    }

    #[test]
    fn freeze_does_not_touch_jobs() {
        let mut c = cluster_with(&[(1, 5)]);
        c.server_mut(ID).freeze();
        assert!(c.server(ID).is_frozen());
        assert_eq!(c.server(ID).job_count(), 1);
        // Direct placement still possible; the scheduler is the enforcer.
        c.server_mut(ID)
            .place(job(2), Resources::cores_gb(4, 8), SimDuration::from_mins(5))
            .unwrap();
        c.server_mut(ID).unfreeze();
        assert!(!c.server(ID).is_frozen());
    }

    #[test]
    fn terminate_frees_resources() {
        let mut c = cluster_with(&[(1, 5)]);
        assert!(c.server_mut(ID).terminate(job(1)));
        assert!(!c.server_mut(ID).terminate(job(1)));
        assert_eq!(c.server(ID).allocated(), Resources::ZERO);
    }

    #[test]
    fn multiple_jobs_interleave() {
        let mut c = cluster_with(&[(1, 1), (2, 2)]);
        assert_eq!(c.advance(SimDuration::MINUTE), vec![(ID, job(1))]);
        assert_eq!(c.server(ID).job_count(), 1);
        assert_eq!(c.advance(SimDuration::MINUTE), vec![(ID, job(2))]);
    }
}
