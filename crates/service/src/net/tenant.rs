//! The tenant layer: auth tokens, session namespacing, and quotas.
//!
//! The in-memory service has one flat session namespace; real multi-tenancy
//! needs isolation on top of it. This module supplies the three pieces the
//! server threads share under the core lock:
//!
//! * **Auth.** A registered token maps to a tenant id
//!   ([`TenantDirectory::authenticate`]); an unknown token is a typed
//!   `auth_failed` rejection before any command is looked at.
//! * **Namespacing.** Every session name in a command is rewritten to
//!   `{tenant}::{name}` ([`TenantDirectory::scope_command`]) before it
//!   reaches the service, so two tenants can both own `"sessions"` and a
//!   tenant can never name — not even to probe for — another tenant's
//!   sessions. Tenant ids cannot contain `:`, which keeps the prefix
//!   unambiguous.
//! * **Quotas.** Per-tenant request-count and sketch-space budgets
//!   ([`TenantQuota`]). Admission ([`TenantDirectory::admit`]) charges one
//!   request per authenticated command and pre-checks `create` commands
//!   against the space budget using the spec's *nominal* session size
//!   (deterministic: [`TenantSketch::new`] + `space_bits`, a pure function
//!   of the spec); the charge is recorded only when the create succeeds and
//!   refunded when the session is dropped
//!   ([`TenantDirectory::settle`]). An exhausted budget is a typed
//!   `quota_exceeded` rejection that never reaches the service — one
//!   tenant's exhaustion cannot starve another's traffic.

use super::proto::{ErrorCode, WireError};
use crate::command::ServiceCommand;
use crate::sketch::TenantSketch;
use std::collections::BTreeMap;

/// Per-tenant budgets. `None` = unlimited.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TenantQuota {
    /// Total admitted requests (every authenticated, well-formed command
    /// counts, queries included — admission control, not success billing).
    pub max_requests: Option<u64>,
    /// Total nominal sketch space across the tenant's live sessions, in
    /// bits.
    pub max_space_bits: Option<u64>,
}

impl TenantQuota {
    /// No limits.
    pub fn unlimited() -> Self {
        TenantQuota::default()
    }
}

/// A tenant's current consumption.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TenantUsage {
    /// Requests admitted so far.
    pub requests: u64,
    /// Nominal sketch bits of the tenant's live sessions.
    pub space_bits: u64,
}

struct TenantState {
    quota: TenantQuota,
    usage: TenantUsage,
    /// Nominal space charge per live session (unscoped name), so a drop
    /// refunds exactly what its create charged.
    charges: BTreeMap<String, u64>,
}

/// The registered tenants: token → id, and per-tenant quota accounting.
#[derive(Default)]
pub struct TenantDirectory {
    by_token: BTreeMap<String, String>,
    tenants: BTreeMap<String, TenantState>,
}

impl TenantDirectory {
    /// An empty directory (every request will fail auth until tenants are
    /// registered).
    pub fn new() -> Self {
        TenantDirectory::default()
    }

    /// Registers a tenant. Ids must be non-empty, use only
    /// `[A-Za-z0-9_-]` (no `:` — the namespace separator stays
    /// unambiguous), and ids and tokens must be unique.
    pub fn register(&mut self, id: &str, token: &str, quota: TenantQuota) -> Result<(), String> {
        if id.is_empty()
            || !id
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "-_".contains(c))
        {
            return Err(format!(
                "tenant id `{id}` must be non-empty and use only [A-Za-z0-9_-]"
            ));
        }
        if self.tenants.contains_key(id) {
            return Err(format!("tenant id `{id}` is already registered"));
        }
        if self.by_token.contains_key(token) {
            return Err("auth token is already registered".to_string());
        }
        self.by_token.insert(token.to_string(), id.to_string());
        self.tenants.insert(
            id.to_string(),
            TenantState {
                quota,
                usage: TenantUsage::default(),
                charges: BTreeMap::new(),
            },
        );
        Ok(())
    }

    /// The tenant id behind a token, if any.
    pub fn authenticate(&self, token: &str) -> Option<&str> {
        self.by_token.get(token).map(String::as_str)
    }

    /// A tenant's current consumption (`None`: unknown tenant).
    pub fn usage(&self, id: &str) -> Option<TenantUsage> {
        self.tenants.get(id).map(|t| t.usage)
    }

    /// The service-side session name of a tenant's session.
    pub fn scoped_name(tenant: &str, name: &str) -> String {
        format!("{tenant}::{name}")
    }

    /// Rewrites every session name in `command` into the tenant's
    /// namespace. Pure and deterministic — the differential harness applies
    /// the same rewrite before replaying against the reference interpreter.
    pub fn scope_command(tenant: &str, command: &ServiceCommand) -> ServiceCommand {
        let scope = |name: &str| Self::scoped_name(tenant, name);
        match command {
            ServiceCommand::Create { name, spec } => ServiceCommand::Create {
                name: scope(name),
                spec: *spec,
            },
            ServiceCommand::Ingest { name, items } => ServiceCommand::Ingest {
                name: scope(name),
                items: items.clone(),
            },
            ServiceCommand::IngestStructured { name, sets } => ServiceCommand::IngestStructured {
                name: scope(name),
                sets: sets.clone(),
            },
            ServiceCommand::Merge { dst, src } => ServiceCommand::Merge {
                dst: scope(dst),
                src: scope(src),
            },
            ServiceCommand::Advance { name, epoch } => ServiceCommand::Advance {
                name: scope(name),
                epoch: *epoch,
            },
            ServiceCommand::Estimate { name } => ServiceCommand::Estimate { name: scope(name) },
            ServiceCommand::EstimateWindow { name } => {
                ServiceCommand::EstimateWindow { name: scope(name) }
            }
            ServiceCommand::IntersectionEstimate { a, b } => ServiceCommand::IntersectionEstimate {
                a: scope(a),
                b: scope(b),
            },
            ServiceCommand::JaccardEstimate { a, b } => ServiceCommand::JaccardEstimate {
                a: scope(a),
                b: scope(b),
            },
            ServiceCommand::EstimateWithR { name, r } => ServiceCommand::EstimateWithR {
                name: scope(name),
                r: *r,
            },
            ServiceCommand::SpaceBits { name } => ServiceCommand::SpaceBits { name: scope(name) },
            ServiceCommand::Save { name } => ServiceCommand::Save { name: scope(name) },
            ServiceCommand::Drop { name } => ServiceCommand::Drop { name: scope(name) },
        }
    }

    /// The deterministic nominal space charge of a command (`Some` only for
    /// a `create` whose spec passes [`crate::SessionSpec::validate`]): what
    /// the session's sketch will occupy, computed from the spec alone. An
    /// invalid spec draws nothing here and charges nothing; the service
    /// rejects it with a typed error.
    fn nominal_bits(command: &ServiceCommand) -> Option<u64> {
        match command {
            ServiceCommand::Create { name, spec } if spec.validate(name).is_ok() => {
                // Windowed sessions hold one complete sketch per ring slot,
                // so the nominal charge scales with the window — a tenant
                // cannot sidestep its space budget by asking for a huge ring
                // of individually small sketches.
                let per_slot = TenantSketch::new(spec).space_bits() as u64;
                let slots = spec.window.unwrap_or(1) as u64;
                Some(per_slot.saturating_mul(slots))
            }
            _ => None,
        }
    }

    /// Admission control: charges one request and pre-checks `create`
    /// commands against the space budget. A typed `quota_exceeded`
    /// rejection never reaches the service.
    pub fn admit(&mut self, tenant: &str, command: &ServiceCommand) -> Result<(), WireError> {
        let Some(state) = self.tenants.get_mut(tenant) else {
            return Err(WireError::protocol(
                ErrorCode::AuthFailed,
                format!("tenant `{tenant}` is not registered"),
            ));
        };
        if let Some(max) = state.quota.max_requests {
            if state.usage.requests >= max {
                return Err(WireError::protocol(
                    ErrorCode::QuotaExceeded,
                    format!("tenant `{tenant}` exhausted its request quota ({max} requests)"),
                ));
            }
        }
        if let (Some(bits), Some(max)) = (Self::nominal_bits(command), state.quota.max_space_bits) {
            let after = state.usage.space_bits.saturating_add(bits);
            if after > max {
                return Err(WireError::protocol(
                    ErrorCode::QuotaExceeded,
                    format!(
                        "tenant `{tenant}` space quota exceeded: session needs {bits} bits, \
                         {used} of {max} in use",
                        used = state.usage.space_bits
                    ),
                ));
            }
        }
        state.usage.requests += 1;
        Ok(())
    }

    /// Post-apply accounting: a successful `create` records its space
    /// charge, a successful `drop` refunds it. Failed commands charge
    /// nothing beyond the admission request count.
    pub fn settle(&mut self, tenant: &str, command: &ServiceCommand, succeeded: bool) {
        if !succeeded {
            return;
        }
        let Some(state) = self.tenants.get_mut(tenant) else {
            return;
        };
        match command {
            ServiceCommand::Create { name, .. } => {
                if let Some(bits) = Self::nominal_bits(command) {
                    state.usage.space_bits = state.usage.space_bits.saturating_add(bits);
                    state.charges.insert(name.clone(), bits);
                }
            }
            ServiceCommand::Drop { name } => {
                if let Some(bits) = state.charges.remove(name) {
                    state.usage.space_bits = state.usage.space_bits.saturating_sub(bits);
                }
            }
            _ => {}
        }
    }
}
