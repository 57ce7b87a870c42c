//! The element class registry: maps class names in configurations to
//! element factories.

use crate::element::{Element, ElementEnv};
use crate::error::ClickError;
use std::collections::HashMap;

/// Factory signature: build an element from its configuration arguments.
/// Errors are plain strings; the router wraps them with the element name.
pub type ElementFactory = fn(&[String], &ElementEnv) -> Result<Box<dyn Element>, String>;

/// A registry of element classes.
#[derive(Clone, Default)]
pub struct ElementRegistry {
    factories: HashMap<String, ElementFactory>,
}

impl std::fmt::Debug for ElementRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut classes: Vec<&str> = self.factories.keys().map(String::as_str).collect();
        classes.sort_unstable();
        f.debug_struct("ElementRegistry")
            .field("classes", &classes)
            .finish()
    }
}

impl ElementRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers (or replaces) a class.
    pub fn register(&mut self, class: &str, factory: ElementFactory) {
        self.factories.insert(class.to_string(), factory);
    }

    /// Instantiates `class` with `args`.
    ///
    /// # Errors
    ///
    /// [`ClickError::UnknownClass`] for unregistered classes;
    /// [`ClickError::Configure`] when the factory rejects the arguments.
    pub fn create(
        &self,
        name: &str,
        class: &str,
        args: &[String],
        env: &ElementEnv,
    ) -> Result<Box<dyn Element>, ClickError> {
        let factory = self
            .factories
            .get(class)
            .ok_or_else(|| ClickError::UnknownClass(class.to_string()))?;
        factory(args, env).map_err(|message| ClickError::Configure {
            element: name.to_string(),
            message,
        })
    }

    /// True if `class` is registered.
    pub fn contains(&self, class: &str) -> bool {
        self.factories.contains_key(class)
    }

    /// Sorted class names.
    pub fn classes(&self) -> Vec<String> {
        let mut v: Vec<String> = self.factories.keys().cloned().collect();
        v.sort_unstable();
        v
    }

    /// The standard registry with all built-in and EndBox elements.
    pub fn standard() -> Self {
        let mut r = Self::new();
        crate::elements::register_all(&mut r);
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_registry_has_paper_elements() {
        let r = ElementRegistry::standard();
        for class in [
            "FromDevice",
            "ToDevice",
            "Discard",
            "Counter",
            "Tee",
            "Queue",
            "Paint",
            "CheckPaint",
            "SetTOS",
            "Classifier",
            "IPClassifier",
            "CheckIPHeader",
            "IPFilter",
            "IPAddrRewriter",
            "IPRewriter",
            "TokenBucket",
            "ConnTracker",
            "Meter",
            "RoundRobinSwitch",
            "AverageCounter",
            "IDSMatcher",
            "TrustedSplitter",
            "UntrustedSplitter",
            "TLSDecrypt",
        ] {
            assert!(r.contains(class), "missing element class {class}");
        }
    }

    #[test]
    fn unknown_class_rejected() {
        let r = ElementRegistry::standard();
        let err = r
            .create("x", "NoSuchElement", &[], &ElementEnv::default())
            .unwrap_err();
        assert_eq!(err, ClickError::UnknownClass("NoSuchElement".into()));
    }

    #[test]
    fn debug_lists_classes() {
        let r = ElementRegistry::standard();
        assert!(format!("{r:?}").contains("Counter"));
    }
}
