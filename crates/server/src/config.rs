//! Server configuration, including the paper-style specification file.
//!
//! "The server is initialized from a specification file which determines
//! the initial group size, the rekeying strategy, the key tree degree, the
//! encryption algorithm, the message digest algorithm, the digital
//! signature algorithm, etc." (§5). [`ServerConfig::from_spec`] parses a
//! simple `key = value` format with exactly those knobs.

use crate::scheduler::BatchPolicy;
use crate::stats::ServerStats;
use kg_core::rekey::{KeyCipher, Strategy};
use kg_crypto::rsa::HashAlg;
use std::fmt;

/// When the server rekeys.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RekeyPolicy {
    /// Rekey on every join/leave, as in the paper's prototype.
    Immediate,
    /// Queue requests and rekey once per interval (or once the queue
    /// reaches a depth threshold), marking the union of the changed paths.
    Batched {
        /// Flush at least this often (milliseconds) while requests pend.
        interval_ms: u64,
        /// Flush immediately at this queue depth.
        max_pending: usize,
    },
}

impl RekeyPolicy {
    /// The corresponding scheduler policy, `None` for immediate mode.
    pub fn batch_policy(self) -> Option<BatchPolicy> {
        match self {
            RekeyPolicy::Immediate => None,
            RekeyPolicy::Batched { interval_ms, max_pending } => {
                Some(BatchPolicy { interval_ms, max_pending })
            }
        }
    }

    /// Stable spec-file name for this policy's mode (the string
    /// [`RekeyPolicy::from_str`] accepts); the batch knobs travel as
    /// separate spec keys.
    pub fn as_str(self) -> &'static str {
        match self {
            RekeyPolicy::Immediate => "immediate",
            RekeyPolicy::Batched { .. } => "batched",
        }
    }
}

impl fmt::Display for RekeyPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl std::str::FromStr for RekeyPolicy {
    type Err = ConfigError;

    /// Parses the mode keyword alone; `"batched"` takes the default
    /// [`BatchPolicy`] knobs (a spec file overrides them with the
    /// `batch-*` keys, a builder with [`ServerConfigBuilder::batched`]).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "immediate" => Ok(RekeyPolicy::Immediate),
            "batched" => {
                let d = BatchPolicy::default();
                Ok(RekeyPolicy::Batched { interval_ms: d.interval_ms, max_pending: d.max_pending })
            }
            other => Err(ConfigError::BadValue { key: "rekey", value: other.to_string() }),
        }
    }
}

/// How rekey messages are authenticated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AuthPolicy {
    /// Encryption only (the left panels of Figures 10/11).
    None,
    /// MD5 (or chosen digest) over each message — integrity only.
    Digest,
    /// One RSA signature per rekey message (Table 4's expensive baseline).
    SignEach,
    /// One RSA signature for all of an operation's rekey messages, via the
    /// Section 4 digest tree.
    SignBatch,
}

impl AuthPolicy {
    /// Whether this policy requires an RSA keypair.
    pub fn needs_signature_key(self) -> bool {
        matches!(self, AuthPolicy::SignEach | AuthPolicy::SignBatch)
    }

    /// Stable spec-file name for this policy (the string
    /// [`AuthPolicy::from_str`] accepts).
    pub fn as_str(self) -> &'static str {
        match self {
            AuthPolicy::None => "none",
            AuthPolicy::Digest => "digest",
            AuthPolicy::SignEach => "sign-each",
            AuthPolicy::SignBatch => "sign-batch",
        }
    }
}

impl fmt::Display for AuthPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl std::str::FromStr for AuthPolicy {
    type Err = ConfigError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "none" => Ok(AuthPolicy::None),
            "digest" => Ok(AuthPolicy::Digest),
            "sign-each" => Ok(AuthPolicy::SignEach),
            "sign-batch" => Ok(AuthPolicy::SignBatch),
            other => Err(ConfigError::BadValue { key: "auth", value: other.to_string() }),
        }
    }
}

/// Group key server configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServerConfig {
    /// Key tree degree `d` (the paper's optimum is 4).
    pub degree: usize,
    /// Rekeying strategy.
    pub strategy: Strategy,
    /// Symmetric cipher for key encryption.
    pub cipher: KeyCipher,
    /// Digest algorithm for integrity/signing.
    pub digest: HashAlg,
    /// Authentication policy for rekey messages.
    pub auth: AuthPolicy,
    /// RSA modulus size in bits (512 in the paper).
    pub rsa_bits: usize,
    /// Seed for deterministic key generation.
    pub seed: u64,
    /// Immediate (per-operation) or batched (periodic) rekeying.
    pub rekey: RekeyPolicy,
    /// Per-op stat records retained: a window of the newest (default
    /// [`ServerStats::DEFAULT_RECORD_CAP`]). Older records are evicted;
    /// aggregates still cover everything since the last reset.
    pub stats_record_cap: usize,
}

impl Default for ServerConfig {
    /// The paper's canonical configuration: degree-4 key tree,
    /// group-oriented rekeying, DES-CBC, MD5, RSA-512, no signing.
    fn default() -> Self {
        ServerConfig {
            degree: 4,
            strategy: Strategy::GroupOriented,
            cipher: KeyCipher::des_cbc(),
            digest: HashAlg::Md5,
            auth: AuthPolicy::None,
            rsa_bits: 512,
            seed: 0,
            rekey: RekeyPolicy::Immediate,
            stats_record_cap: ServerStats::DEFAULT_RECORD_CAP,
        }
    }
}

/// Spec-file parse errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// A line was not `key = value`.
    BadLine(String),
    /// Unknown configuration key.
    UnknownKey(String),
    /// Unparseable or out-of-range value for a known key.
    BadValue {
        /// The key whose value failed to parse.
        key: &'static str,
        /// The offending value.
        value: String,
    },
}

impl ConfigError {
    fn bad(key: &'static str, value: impl ToString) -> Self {
        ConfigError::BadValue { key, value: value.to_string() }
    }
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::BadLine(l) => write!(f, "malformed spec line: {l:?}"),
            ConfigError::UnknownKey(k) => write!(f, "unknown spec key: {k:?}"),
            ConfigError::BadValue { key, value } => {
                write!(f, "bad value {value:?} for spec key {key:?}")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

impl ServerConfig {
    /// Parse a specification file. Recognized keys:
    ///
    /// ```text
    /// # comment
    /// degree   = 4
    /// strategy = group        # user | key | group | derived
    /// cipher   = des-cbc      # des-cbc | 3des-cbc
    /// digest   = md5          # md5 | sha1 | sha256
    /// auth     = sign-batch   # none | digest | sign-each | sign-batch
    /// rsa-bits = 512
    /// seed     = 42
    /// rekey    = batched      # immediate | batched
    /// batch-interval-ms  = 1000
    /// batch-max-pending  = 64
    /// stats-record-cap   = 4096   # retained per-op records (default: 1024)
    /// ```
    ///
    /// The two `batch-*` knobs only take effect with `rekey = batched`
    /// (they may appear in either order relative to it).
    pub fn from_spec(spec: &str) -> Result<Self, ConfigError> {
        let mut cfg = ServerConfig::default();
        let mut batched = false;
        let mut batch = BatchPolicy::default();
        for raw in spec.lines() {
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let (key, value) =
                line.split_once('=').ok_or_else(|| ConfigError::BadLine(raw.to_string()))?;
            let (key, value) = (key.trim(), value.trim());
            match key {
                "degree" => {
                    cfg.degree = value.parse().map_err(|_| ConfigError::bad("degree", value))?;
                }
                "strategy" => {
                    cfg.strategy =
                        value.parse().map_err(|_| ConfigError::bad("strategy", value))?;
                }
                "cipher" => {
                    cfg.cipher = value.parse().map_err(|_| ConfigError::bad("cipher", value))?;
                }
                "digest" => {
                    cfg.digest = value.parse().map_err(|_| ConfigError::bad("digest", value))?;
                }
                "auth" => cfg.auth = value.parse()?,
                "rsa-bits" => {
                    cfg.rsa_bits =
                        value.parse().map_err(|_| ConfigError::bad("rsa-bits", value))?;
                }
                "seed" => {
                    cfg.seed = value.parse().map_err(|_| ConfigError::bad("seed", value))?;
                }
                "rekey" => {
                    batched = matches!(value.parse::<RekeyPolicy>()?, RekeyPolicy::Batched { .. });
                }
                "batch-interval-ms" => {
                    batch.interval_ms =
                        value.parse().map_err(|_| ConfigError::bad("batch-interval-ms", value))?;
                    if batch.interval_ms == 0 {
                        // A zero interval would flush on every tick and
                        // starve the batching the knob exists to buy.
                        return Err(ConfigError::bad("batch-interval-ms", value));
                    }
                }
                "stats-record-cap" => {
                    cfg.stats_record_cap =
                        value.parse().map_err(|_| ConfigError::bad("stats-record-cap", value))?;
                }
                "batch-max-pending" => {
                    batch.max_pending =
                        value.parse().map_err(|_| ConfigError::bad("batch-max-pending", value))?;
                    if batch.max_pending == 0 {
                        return Err(ConfigError::bad("batch-max-pending", value));
                    }
                }
                other => return Err(ConfigError::UnknownKey(other.to_string())),
            }
        }
        if batched {
            cfg.rekey = RekeyPolicy::Batched {
                interval_ms: batch.interval_ms,
                max_pending: batch.max_pending,
            };
        }
        cfg.validate()?;
        Ok(cfg)
    }

    /// Check the range invariants every construction path shares
    /// ([`Self::from_spec`] and [`ServerConfigBuilder::build`]):
    /// `degree >= 2` (a degree-1 "tree" is a chain with no fanout),
    /// `rsa-bits >= 512` and even (the modulus is built from two
    /// half-size primes; odd or tiny sizes cannot), and batched-mode
    /// knobs `>= 1` (a zero interval or depth would flush every tick).
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.degree < 2 {
            return Err(ConfigError::bad("degree", self.degree));
        }
        if self.rsa_bits < 512 || !self.rsa_bits.is_multiple_of(2) {
            return Err(ConfigError::bad("rsa-bits", self.rsa_bits));
        }
        if let RekeyPolicy::Batched { interval_ms, max_pending } = self.rekey {
            if interval_ms == 0 {
                return Err(ConfigError::bad("batch-interval-ms", interval_ms));
            }
            if max_pending == 0 {
                return Err(ConfigError::bad("batch-max-pending", max_pending));
            }
        }
        Ok(())
    }

    /// Start building a configuration from the paper-canonical defaults.
    pub fn builder() -> ServerConfigBuilder {
        ServerConfigBuilder { cfg: ServerConfig::default() }
    }

    /// Emit this configuration as a spec file [`Self::from_spec`] parses
    /// back to an equal value. Every spec-representable knob is written
    /// out explicitly (defaults included), so the emitted text is also a
    /// complete record of the run's configuration for experiment logs.
    pub fn to_spec(&self) -> String {
        use std::fmt::Write;
        let mut s = String::new();
        let _ = writeln!(s, "degree   = {}", self.degree);
        let _ = writeln!(s, "strategy = {}", self.strategy);
        let _ = writeln!(s, "cipher   = {}", self.cipher);
        let _ = writeln!(s, "digest   = {}", self.digest);
        let _ = writeln!(s, "auth     = {}", self.auth);
        let _ = writeln!(s, "rsa-bits = {}", self.rsa_bits);
        let _ = writeln!(s, "seed     = {}", self.seed);
        let _ = writeln!(s, "rekey    = {}", self.rekey);
        if let RekeyPolicy::Batched { interval_ms, max_pending } = self.rekey {
            let _ = writeln!(s, "batch-interval-ms = {interval_ms}");
            let _ = writeln!(s, "batch-max-pending = {max_pending}");
        }
        let _ = writeln!(s, "stats-record-cap  = {}", self.stats_record_cap);
        s
    }

    /// The settings WAL replay depends on, as `(spec key, value)` pairs in
    /// [`Self::to_spec`] syntax. The seed and cipher fix the key and IV
    /// streams, the degree the tree, the strategy which keys and how many
    /// seals a request draws, and the rekey mode whether a logged join is
    /// applied or queued. A store pins them in its log header; every other
    /// setting may change across a restart.
    pub(crate) fn replay_contract(&self) -> [(&'static str, String); 5] {
        [
            ("seed", self.seed.to_string()),
            ("degree", self.degree.to_string()),
            ("cipher", self.cipher.to_string()),
            ("strategy", self.strategy.to_string()),
            ("rekey", self.rekey.to_string()),
        ]
    }

    /// Symmetric key length implied by the cipher.
    pub fn key_len(&self) -> usize {
        self.cipher.key_len()
    }
}

/// Builder for [`ServerConfig`] with typed setters — the programmatic
/// twin of the spec file. Starts from [`ServerConfig::default`] (the
/// paper's canonical configuration) and checks the same invariants as
/// [`ServerConfig::from_spec`] at [`build`](ServerConfigBuilder::build)
/// time, so a config that only exists in code cannot silently hold
/// values a spec file would reject.
#[derive(Debug, Clone)]
pub struct ServerConfigBuilder {
    cfg: ServerConfig,
}

impl ServerConfigBuilder {
    /// Key tree degree `d`.
    pub fn degree(mut self, degree: usize) -> Self {
        self.cfg.degree = degree;
        self
    }

    /// Rekeying strategy.
    pub fn strategy(mut self, strategy: Strategy) -> Self {
        self.cfg.strategy = strategy;
        self
    }

    /// Symmetric cipher for key encryption.
    pub fn cipher(mut self, cipher: KeyCipher) -> Self {
        self.cfg.cipher = cipher;
        self
    }

    /// Digest algorithm for integrity/signing.
    pub fn digest(mut self, digest: HashAlg) -> Self {
        self.cfg.digest = digest;
        self
    }

    /// Authentication policy for rekey messages.
    pub fn auth(mut self, auth: AuthPolicy) -> Self {
        self.cfg.auth = auth;
        self
    }

    /// RSA modulus size in bits.
    pub fn rsa_bits(mut self, bits: usize) -> Self {
        self.cfg.rsa_bits = bits;
        self
    }

    /// Seed for deterministic key generation.
    pub fn seed(mut self, seed: u64) -> Self {
        self.cfg.seed = seed;
        self
    }

    /// Rekey on every join/leave (the default).
    pub fn immediate(mut self) -> Self {
        self.cfg.rekey = RekeyPolicy::Immediate;
        self
    }

    /// Queue requests and rekey once per `interval_ms` interval, or as
    /// soon as `max_pending` requests are queued.
    pub fn batched(mut self, interval_ms: u64, max_pending: usize) -> Self {
        self.cfg.rekey = RekeyPolicy::Batched { interval_ms, max_pending };
        self
    }

    /// Set the rekey policy directly (for policies carried in variables).
    pub fn rekey(mut self, rekey: RekeyPolicy) -> Self {
        self.cfg.rekey = rekey;
        self
    }

    /// Per-op stat records retained.
    pub fn stats_record_cap(mut self, cap: usize) -> Self {
        self.cfg.stats_record_cap = cap;
        self
    }

    /// Validate and produce the configuration.
    pub fn build(self) -> Result<ServerConfig, ConfigError> {
        self.cfg.validate()?;
        Ok(self.cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_paper_canonical() {
        let c = ServerConfig::default();
        assert_eq!(c.degree, 4);
        assert_eq!(c.strategy, Strategy::GroupOriented);
        assert_eq!(c.cipher, KeyCipher::DesCbc);
        assert_eq!(c.digest, HashAlg::Md5);
        assert_eq!(c.auth, AuthPolicy::None);
        assert_eq!(c.rsa_bits, 512);
        assert_eq!(c.key_len(), 8);
    }

    #[test]
    fn full_spec_parses() {
        let spec = r"
            # experiment E1
            degree   = 8
            strategy = key
            cipher   = 3des-cbc
            digest   = sha256
            auth     = sign-batch
            rsa-bits = 1024
            seed     = 99
        ";
        let c = ServerConfig::from_spec(spec).unwrap();
        assert_eq!(c.degree, 8);
        assert_eq!(c.strategy, Strategy::KeyOriented);
        assert_eq!(c.cipher, KeyCipher::TripleDesCbc);
        assert_eq!(c.digest, HashAlg::Sha256);
        assert_eq!(c.auth, AuthPolicy::SignBatch);
        assert_eq!(c.rsa_bits, 1024);
        assert_eq!(c.seed, 99);
        assert_eq!(c.key_len(), 24);
    }

    #[test]
    fn batched_rekey_spec_parses() {
        let c = ServerConfig::from_spec(
            "batch-interval-ms = 250\nrekey = batched\nbatch-max-pending = 16\n",
        )
        .unwrap();
        assert_eq!(c.rekey, RekeyPolicy::Batched { interval_ms: 250, max_pending: 16 });
        assert_eq!(c.rekey.batch_policy(), Some(BatchPolicy { interval_ms: 250, max_pending: 16 }));

        // Without `rekey = batched` the knobs are inert.
        let c = ServerConfig::from_spec("batch-interval-ms = 250").unwrap();
        assert_eq!(c.rekey, RekeyPolicy::Immediate);
        assert_eq!(c.rekey.batch_policy(), None);

        assert!(matches!(
            ServerConfig::from_spec("rekey = sometimes"),
            Err(ConfigError::BadValue { key: "rekey", .. })
        ));
        assert!(matches!(
            ServerConfig::from_spec("batch-max-pending = 0"),
            Err(ConfigError::BadValue { key: "batch-max-pending", .. })
        ));
        assert!(matches!(
            ServerConfig::from_spec("batch-interval-ms = soon"),
            Err(ConfigError::BadValue { key: "batch-interval-ms", .. })
        ));
    }

    /// The worker pool and its `workers` key are gone; a leftover key in
    /// an old spec file fails loudly instead of being ignored.
    #[test]
    fn removed_workers_key_is_unknown() {
        assert_eq!(
            ServerConfig::from_spec("workers = 4"),
            Err(ConfigError::UnknownKey("workers".into()))
        );
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let c = ServerConfig::from_spec("\n# all defaults\n\n").unwrap();
        assert_eq!(c.degree, 4);
    }

    #[test]
    fn errors_are_specific() {
        assert!(matches!(ServerConfig::from_spec("degree"), Err(ConfigError::BadLine(_))));
        assert!(matches!(ServerConfig::from_spec("mystery = 1"), Err(ConfigError::UnknownKey(_))));
        assert!(matches!(
            ServerConfig::from_spec("degree = banana"),
            Err(ConfigError::BadValue { key: "degree", .. })
        ));
        assert!(matches!(
            ServerConfig::from_spec("degree = 1"),
            Err(ConfigError::BadValue { key: "degree", .. })
        ));
        assert!(ServerConfig::from_spec("degree = 4294967296").is_ok());
        assert!(matches!(
            ServerConfig::from_spec("auth = sometimes"),
            Err(ConfigError::BadValue { key: "auth", .. })
        ));
        assert!(matches!(
            ServerConfig::from_spec("strategy = quantum"),
            Err(ConfigError::BadValue { key: "strategy", .. })
        ));
        assert!(matches!(
            ServerConfig::from_spec("cipher = rot13"),
            Err(ConfigError::BadValue { key: "cipher", .. })
        ));
        assert!(matches!(
            ServerConfig::from_spec("digest = crc32"),
            Err(ConfigError::BadValue { key: "digest", .. })
        ));
    }

    #[test]
    fn enum_spec_names_roundtrip() {
        for c in [KeyCipher::DesCbc, KeyCipher::TripleDesCbc] {
            assert_eq!(c.as_str().parse::<KeyCipher>().unwrap(), c);
            assert_eq!(c.to_string(), c.as_str());
        }
        for h in [HashAlg::Md5, HashAlg::Sha1, HashAlg::Sha256] {
            assert_eq!(h.as_str().parse::<HashAlg>().unwrap(), h);
            assert_eq!(h.to_string(), h.as_str());
        }
        for a in [AuthPolicy::None, AuthPolicy::Digest, AuthPolicy::SignEach, AuthPolicy::SignBatch]
        {
            assert_eq!(a.as_str().parse::<AuthPolicy>().unwrap(), a);
            assert_eq!(a.to_string(), a.as_str());
        }
        assert_eq!("immediate".parse::<RekeyPolicy>().unwrap(), RekeyPolicy::Immediate);
        assert!(matches!("batched".parse::<RekeyPolicy>().unwrap(), RekeyPolicy::Batched { .. }));
        let p = RekeyPolicy::Batched { interval_ms: 7, max_pending: 3 };
        assert_eq!(p.as_str(), "batched");
        assert_eq!(p.to_string(), "batched");
        assert!("des".parse::<KeyCipher>().is_err());
        assert!("crc32".parse::<HashAlg>().is_err());
        assert!("sometimes".parse::<RekeyPolicy>().is_err());
    }

    #[test]
    fn builder_builds_and_validates() {
        let c = ServerConfig::builder()
            .degree(8)
            .strategy(Strategy::Derived)
            .cipher(KeyCipher::TripleDesCbc)
            .digest(HashAlg::Sha256)
            .auth(AuthPolicy::SignBatch)
            .rsa_bits(1024)
            .seed(99)
            .batched(250, 16)
            .stats_record_cap(128)
            .build()
            .unwrap();
        assert_eq!(c.strategy, Strategy::Derived);
        assert_eq!(c.rekey, RekeyPolicy::Batched { interval_ms: 250, max_pending: 16 });
        assert_eq!(c.stats_record_cap, 128);

        assert_eq!(ServerConfig::builder().build().unwrap(), ServerConfig::default());
        assert_eq!(
            ServerConfig::builder().batched(10, 5).immediate().build().unwrap().rekey,
            RekeyPolicy::Immediate
        );
        assert!(matches!(
            ServerConfig::builder().degree(1).build(),
            Err(ConfigError::BadValue { key: "degree", .. })
        ));
        assert!(matches!(
            ServerConfig::builder().batched(0, 16).build(),
            Err(ConfigError::BadValue { key: "batch-interval-ms", .. })
        ));
        assert!(matches!(
            ServerConfig::builder().batched(100, 0).build(),
            Err(ConfigError::BadValue { key: "batch-max-pending", .. })
        ));
    }

    #[test]
    fn rsa_bits_must_be_even_and_at_least_512() {
        assert!(matches!(
            ServerConfig::from_spec("rsa-bits = 256"),
            Err(ConfigError::BadValue { key: "rsa-bits", .. })
        ));
        assert!(matches!(
            ServerConfig::from_spec("rsa-bits = 513"),
            Err(ConfigError::BadValue { key: "rsa-bits", .. })
        ));
        assert!(matches!(
            ServerConfig::builder().rsa_bits(0).build(),
            Err(ConfigError::BadValue { key: "rsa-bits", .. })
        ));
        assert!(ServerConfig::from_spec("rsa-bits = 512").is_ok());
        assert!(ServerConfig::from_spec("rsa-bits = 1024").is_ok());
    }

    #[test]
    fn zero_batch_interval_is_rejected() {
        assert!(matches!(
            ServerConfig::from_spec("batch-interval-ms = 0"),
            Err(ConfigError::BadValue { key: "batch-interval-ms", .. })
        ));
        assert!(matches!(
            ServerConfig::from_spec("rekey = batched\nbatch-interval-ms = 0"),
            Err(ConfigError::BadValue { key: "batch-interval-ms", .. })
        ));
    }

    #[test]
    fn derived_strategy_parses_from_spec() {
        let c = ServerConfig::from_spec("strategy = derived").unwrap();
        assert_eq!(c.strategy, Strategy::Derived);
        let c = ServerConfig::from_spec("strategy = client-derived").unwrap();
        assert_eq!(c.strategy, Strategy::Derived);
    }

    #[test]
    fn to_spec_roundtrips_defaults_and_batched() {
        for cfg in [
            ServerConfig::default(),
            ServerConfig::builder()
                .degree(16)
                .strategy(Strategy::Derived)
                .cipher(KeyCipher::TripleDesCbc)
                .digest(HashAlg::Sha1)
                .auth(AuthPolicy::SignEach)
                .rsa_bits(768)
                .seed(123)
                .batched(50, 9)
                .stats_record_cap(7)
                .build()
                .unwrap(),
        ] {
            let reparsed = ServerConfig::from_spec(&cfg.to_spec()).unwrap();
            assert_eq!(reparsed, cfg, "spec:\n{}", cfg.to_spec());
        }
    }

    #[test]
    fn every_config_error_variant_is_reachable() {
        assert!(matches!(ServerConfig::from_spec("no equals sign"), Err(ConfigError::BadLine(_))));
        assert!(matches!(ServerConfig::from_spec("mystery = 1"), Err(ConfigError::UnknownKey(_))));
        assert!(matches!(
            ServerConfig::from_spec("seed = entropy"),
            Err(ConfigError::BadValue { key: "seed", .. })
        ));
        assert!(matches!(
            ServerConfig::from_spec("stats-record-cap = lots"),
            Err(ConfigError::BadValue { key: "stats-record-cap", .. })
        ));
    }

    mod prop {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn to_spec_from_spec_roundtrip(
                degree in 2usize..32,
                strategy_ix in 0usize..4,
                cipher_ix in 0usize..2,
                digest_ix in 0usize..3,
                auth_ix in 0usize..4,
                rsa_halfwords in 256usize..1024,
                seed in any::<u64>(),
                batched in any::<bool>(),
                interval_ms in 1u64..100_000,
                max_pending in 1usize..10_000,
                cap in 0usize..100_000,
            ) {
                let strategy = kg_core::rekey::Strategy::EVERY[strategy_ix];
                let cipher = [KeyCipher::DesCbc, KeyCipher::TripleDesCbc][cipher_ix];
                let digest = [HashAlg::Md5, HashAlg::Sha1, HashAlg::Sha256][digest_ix];
                let auth = [
                    AuthPolicy::None,
                    AuthPolicy::Digest,
                    AuthPolicy::SignEach,
                    AuthPolicy::SignBatch,
                ][auth_ix];
                let mut b = ServerConfig::builder()
                    .degree(degree)
                    .strategy(strategy)
                    .cipher(cipher)
                    .digest(digest)
                    .auth(auth)
                    .rsa_bits(rsa_halfwords * 2)
                    .seed(seed)
                    .stats_record_cap(cap);
                b = if batched { b.batched(interval_ms, max_pending) } else { b.immediate() };
                let cfg = b.build().unwrap();
                let reparsed = ServerConfig::from_spec(&cfg.to_spec()).unwrap();
                prop_assert_eq!(reparsed, cfg);
            }
        }
    }

    #[test]
    fn auth_policy_signature_key_requirement() {
        assert!(!AuthPolicy::None.needs_signature_key());
        assert!(!AuthPolicy::Digest.needs_signature_key());
        assert!(AuthPolicy::SignEach.needs_signature_key());
        assert!(AuthPolicy::SignBatch.needs_signature_key());
    }

    #[test]
    fn error_display() {
        let e = ConfigError::BadValue { key: "degree", value: "x".into() };
        assert!(e.to_string().contains("degree"));
        assert!(ConfigError::UnknownKey("z".into()).to_string().contains('z'));
        assert!(ConfigError::BadLine("q".into()).to_string().contains('q'));
    }
}
