//! The non-technical half of China's censorship ecosystem (§2 of the
//! paper): ICP registration with the TCA, MIIT's central database, and
//! the MPS/MSS enforcement workflow — slow, investigation-driven
//! shutdowns of unregistered or illegal services, in contrast to the
//! GFW's immediate technical blocking.

use std::collections::BTreeMap;

use sc_simnet::time::{SimDuration, SimTime};

/// Documents submitted with a registration (§3's list).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegistrationDossier {
    /// Service name.
    pub service_name: String,
    /// Service type description.
    pub service_type: String,
    /// Domain name.
    pub domain: String,
    /// Responsible person (the legal representative).
    pub responsible_person: String,
    /// Biometric document of the legal representative supplied.
    pub biometric_document: bool,
    /// Documentation with text/screenshots/usage videos supplied.
    pub service_documentation: bool,
    /// Workable user guide supplied.
    pub user_guide: bool,
    /// The visible whitelist of services, if declared.
    pub declared_whitelist: Vec<String>,
}

impl RegistrationDossier {
    /// Whether the dossier is complete enough for the TCA to accept.
    pub fn is_complete(&self) -> bool {
        !self.service_name.is_empty()
            && !self.domain.is_empty()
            && !self.responsible_person.is_empty()
            && self.biometric_document
            && self.service_documentation
            && self.user_guide
    }
}

/// Registration lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RegistrationStatus {
    /// Submitted, in manual verification (takes weeks to months).
    UnderReview {
        /// When review completes.
        completes_at: SimTime,
    },
    /// Registered with an ICP number.
    Registered,
    /// Rejected (incomplete dossier).
    Rejected,
}

/// An ICP record in the MIIT database.
#[derive(Debug, Clone)]
pub struct IcpRecord {
    /// The dossier as filed.
    pub dossier: RegistrationDossier,
    /// Status.
    pub status: RegistrationStatus,
    /// Assigned ICP number once registered.
    pub icp_number: Option<String>,
}

/// Enforcement state for a service the MPS/MSS is investigating.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EnforcementStatus {
    /// Not under investigation.
    Clear,
    /// Evidence collection in progress.
    UnderInvestigation {
        /// When the investigation concludes.
        concludes_at: SimTime,
    },
    /// Shut down (domain blocked, responsible person pursued).
    ShutDown,
}

/// The manual registration review delay (the paper: weeks to months).
pub const REVIEW_DELAY: SimDuration = SimDuration::from_secs(30 * 24 * 3600);
/// Investigation duration before a shutdown (conservative enforcement).
pub const INVESTIGATION_DELAY: SimDuration = SimDuration::from_secs(60 * 24 * 3600);

/// The first ICP number the registry issues: ScholarCloud's, in the paper.
const FIRST_ICP: u64 = 15_063_437;

/// The regulatory ecosystem: the MIIT database plus enforcement state.
#[derive(Debug, Default)]
pub struct Regulator {
    records: BTreeMap<String, IcpRecord>,
    enforcement: BTreeMap<String, EnforcementStatus>,
    /// ICP numbers issued so far; the next is `FIRST_ICP + issued`.
    issued: u64,
}

impl Regulator {
    /// Creates an empty regulator (numbers start at the paper's block).
    pub fn new() -> Self {
        Self::default()
    }

    /// Submits a dossier to the TCA at `now`. Returns the initial status.
    pub fn submit(&mut self, dossier: RegistrationDossier, now: SimTime) -> RegistrationStatus {
        let status = if dossier.is_complete() {
            RegistrationStatus::UnderReview { completes_at: now + REVIEW_DELAY }
        } else {
            RegistrationStatus::Rejected
        };
        self.records.insert(
            dossier.domain.clone(),
            IcpRecord { dossier, status, icp_number: None },
        );
        status
    }

    /// Advances the regulator's clock: completes reviews that are due,
    /// numbering them in domain order, and shuts down services whose
    /// investigation has concluded.
    pub fn tick(&mut self, now: SimTime) {
        for rec in self.records.values_mut() {
            if let RegistrationStatus::UnderReview { completes_at } = rec.status {
                if now >= completes_at {
                    rec.status = RegistrationStatus::Registered;
                    rec.icp_number = Some(format!("ICP Reg. #{}", FIRST_ICP + self.issued));
                    self.issued += 1;
                }
            }
        }
        for status in self.enforcement.values_mut() {
            if let EnforcementStatus::UnderInvestigation { concludes_at } = *status {
                if now >= concludes_at {
                    *status = EnforcementStatus::ShutDown;
                }
            }
        }
    }

    /// Whether `domain` holds a valid registration.
    pub fn is_registered(&self, domain: &str) -> bool {
        self.records
            .get(domain)
            .is_some_and(|r| r.status == RegistrationStatus::Registered)
    }

    /// The ICP number for `domain`, if registered.
    pub fn icp_number(&self, domain: &str) -> Option<&str> {
        self.records.get(domain).and_then(|r| r.icp_number.as_deref())
    }

    /// MPS/MSS receives a report about `domain` at `now`. Registered
    /// services with a visible whitelist are examined and cleared;
    /// unregistered services go under investigation.
    pub fn report_service(&mut self, domain: &str, now: SimTime) -> EnforcementStatus {
        let status = if self.is_registered(domain) {
            // The agencies can inspect the declared whitelist on demand;
            // a registered, whitelist-scoped service is left standing.
            EnforcementStatus::Clear
        } else {
            EnforcementStatus::UnderInvestigation { concludes_at: now + INVESTIGATION_DELAY }
        };
        self.enforcement.insert(domain.to_string(), status);
        status
    }

    /// Current enforcement status for `domain`.
    #[cfg(test)]
    pub fn enforcement_status(&self, domain: &str) -> EnforcementStatus {
        self.enforcement
            .get(domain)
            .copied()
            .unwrap_or(EnforcementStatus::Clear)
    }

    /// The agencies may demand a whitelist change; the operator complies
    /// by filing the amended list. Returns false for unregistered domains.
    pub fn amend_whitelist(&mut self, domain: &str, whitelist: Vec<String>) -> bool {
        match self.records.get_mut(domain) {
            Some(rec) if rec.status == RegistrationStatus::Registered => {
                rec.dossier.declared_whitelist = whitelist;
                true
            }
            _ => false,
        }
    }
}

/// A complete ScholarCloud-style dossier (used by tests and examples).
pub fn scholarcloud_dossier() -> RegistrationDossier {
    RegistrationDossier {
        service_name: "ScholarCloud".into(),
        service_type: "academic literature access platform".into(),
        domain: "scholar.thucloud.example".into(),
        responsible_person: "legal representative".into(),
        biometric_document: true,
        service_documentation: true,
        user_guide: true,
        declared_whitelist: vec!["scholar.google.com".into()],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn complete_dossier_registers_after_review() {
        let mut reg = Regulator::new();
        let t0 = SimTime::ZERO;
        let status = reg.submit(scholarcloud_dossier(), t0);
        assert!(matches!(status, RegistrationStatus::UnderReview { .. }));
        assert!(!reg.is_registered("scholar.thucloud.example"));
        reg.tick(t0 + REVIEW_DELAY);
        assert!(reg.is_registered("scholar.thucloud.example"));
        let icp = reg.icp_number("scholar.thucloud.example").unwrap();
        assert!(icp.contains("15063437"), "paper's ICP number: {icp}");
    }

    #[test]
    fn icp_numbers_ascend_in_domain_order() {
        let mut reg = Regulator::new();
        let domains: Vec<String> =
            [5, 2, 7, 0, 3, 6, 1, 4].iter().map(|i| format!("svc-{i}.example")).collect();
        for domain in &domains {
            let dossier = RegistrationDossier { domain: domain.clone(), ..scholarcloud_dossier() };
            reg.submit(dossier, SimTime::ZERO);
        }
        reg.tick(SimTime::ZERO + REVIEW_DELAY);
        let mut sorted = domains.clone();
        sorted.sort();
        let numbers: Vec<&str> = sorted.iter().map(|d| reg.icp_number(d).unwrap()).collect();
        let expected: Vec<String> = (0..8).map(|i| format!("ICP Reg. #{}", 15_063_437 + i)).collect();
        assert_eq!(numbers, expected, "numbers follow domain order");
    }

    #[test]
    fn both_constructors_issue_the_papers_first_number() {
        for mut reg in [Regulator::new(), Regulator::default()] {
            reg.submit(scholarcloud_dossier(), SimTime::ZERO);
            reg.tick(SimTime::ZERO + REVIEW_DELAY);
            assert_eq!(reg.icp_number("scholar.thucloud.example"), Some("ICP Reg. #15063437"));
        }
    }

    #[test]
    fn incomplete_dossier_is_rejected() {
        let mut reg = Regulator::new();
        let mut d = scholarcloud_dossier();
        d.biometric_document = false;
        assert_eq!(reg.submit(d, SimTime::ZERO), RegistrationStatus::Rejected);
    }

    #[test]
    fn registered_whitelisted_service_survives_report() {
        let mut reg = Regulator::new();
        reg.submit(scholarcloud_dossier(), SimTime::ZERO);
        reg.tick(SimTime::ZERO + REVIEW_DELAY);
        let status = reg.report_service("scholar.thucloud.example", SimTime::ZERO + REVIEW_DELAY);
        assert_eq!(status, EnforcementStatus::Clear);
    }

    #[test]
    fn unregistered_vpn_service_is_eventually_shut_down() {
        let mut reg = Regulator::new();
        let t0 = SimTime::ZERO;
        let status = reg.report_service("cheap-vpn.example", t0);
        assert!(matches!(status, EnforcementStatus::UnderInvestigation { .. }));
        // Enforcement is slow (the paper: evidence collection takes time).
        reg.tick(t0 + SimDuration::from_secs(24 * 3600));
        assert!(matches!(
            reg.enforcement_status("cheap-vpn.example"),
            EnforcementStatus::UnderInvestigation { .. }
        ));
        reg.tick(t0 + INVESTIGATION_DELAY);
        assert_eq!(
            reg.enforcement_status("cheap-vpn.example"),
            EnforcementStatus::ShutDown
        );
    }

    #[test]
    fn whitelist_amendment_requires_registration() {
        let mut reg = Regulator::new();
        assert!(!reg.amend_whitelist("nobody.example", vec![]));
        reg.submit(scholarcloud_dossier(), SimTime::ZERO);
        reg.tick(SimTime::ZERO + REVIEW_DELAY);
        assert!(reg.amend_whitelist(
            "scholar.thucloud.example",
            vec!["scholar.google.com".into(), "www.google.com".into()],
        ));
    }
}
