//! IDPS substrate for the EndBox reproduction: a Snort-subset rule parser,
//! a from-scratch Aho–Corasick multi-pattern matcher, and a matching
//! engine.
//!
//! The paper's IDPS use case "support\[s\] Snort rule sets and execute\[s\] its
//! string matching algorithm \[Aho–Corasick\]" with "a subset of 377 rules
//! of the Snort community rule set" that do not match the generated
//! traffic (§V-B). The community rule set itself is licensed content and
//! not vendored here; [`community::synthetic_rules`] generates a
//! deterministic 377-rule stand-in with the same structure (header
//! predicates + content patterns) and the same no-match property against
//! the benign traffic generator.
//!
//! ```
//! use endbox_snort::{engine::CompiledRules, rule::parse_rules};
//!
//! let rules = parse_rules(
//!     r#"alert tcp any any -> any 80 (msg:"demo"; content:"attack"; sid:1;)"#,
//! ).unwrap();
//! let compiled = CompiledRules::compile(&rules);
//! assert_eq!(compiled.rule_count(), 1);
//! ```

#![deny(unsafe_code)]

pub mod aho;
pub mod community;
pub mod engine;
pub mod rule;

pub use aho::AhoCorasick;
pub use engine::{CompiledRules, ScanOutcome};
pub use rule::{parse_rules, Rule, RuleAction};
