//! The operational/economic model of the deployed service (§1 and §3 of
//! the paper): two rented VMs, ~2.2 USD/day, 2000 registered users with
//! ~700 online daily, plus the ICP registration the service operates under.

/// Operating parameters of a ScholarCloud deployment.
#[derive(Debug, Clone, PartialEq)]
pub struct Deployment {
    /// Number of rented VMs (domestic + remote).
    pub vms: u32,
    /// Daily cost per VM in USD.
    pub vm_daily_usd: f64,
    /// Users online on a typical day.
    pub daily_active_users: u64,
    /// ICP registration number, once legalized.
    pub icp_registration: Option<String>,
}

impl Deployment {
    /// The deployment reported in the paper (launched Jan. 2016).
    pub fn paper() -> Self {
        Deployment {
            vms: 2,
            vm_daily_usd: 1.1,
            daily_active_users: 700,
            icp_registration: Some("ICP Reg. #15063437".into()),
        }
    }

    /// Total daily operating cost in USD.
    pub fn daily_cost_usd(&self) -> f64 {
        self.vms as f64 * self.vm_daily_usd
    }

    /// Daily cost per active user in USD.
    ///
    /// # Panics
    ///
    /// Panics if there are no active users.
    pub fn cost_per_active_user_usd(&self) -> f64 {
        assert!(self.daily_active_users > 0, "no active users");
        self.daily_cost_usd() / self.daily_active_users as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_numbers() {
        let d = Deployment::paper();
        assert!((d.daily_cost_usd() - 2.2).abs() < 1e-9);
        assert!(d.icp_registration.is_some(), "legalized: registered with the TCA");
        // ~0.31 US cents per active user per day.
        let per_user = d.cost_per_active_user_usd();
        assert!(per_user < 0.01, "cost per user should be well under a cent: {per_user}");
        assert!((d.daily_cost_usd() * 365.0 - 803.0).abs() < 0.5, "a year of operation");
    }

    #[test]
    #[should_panic(expected = "no active users")]
    fn zero_users_panics() {
        let mut d = Deployment::paper();
        d.daily_active_users = 0;
        let _ = d.cost_per_active_user_usd();
    }
}
