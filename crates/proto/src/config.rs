//! GPU configuration references: a preset name or an inline config.

use gpusim::GpuConfig;
use minijson::{FromJson, JsonError, ToJson, Value};

/// How a request names its target GPU: a server-side preset, or a full
/// inline [`GpuConfig`] (the CLI inlines `--config FILE` contents so the
/// server never needs access to the client's filesystem).
#[derive(Debug, Clone, PartialEq)]
pub enum ConfigRef {
    /// A named preset (`"mobile"`, `"rtx2060"` and their aliases).
    Preset(String),
    /// A complete inline configuration.
    Inline(Box<GpuConfig>),
}

impl ConfigRef {
    /// A preset reference.
    pub fn preset(name: impl Into<String>) -> Self {
        ConfigRef::Preset(name.into())
    }

    /// An inline configuration.
    pub fn inline(config: GpuConfig) -> Self {
        ConfigRef::Inline(Box::new(config))
    }

    /// The preset names [`ConfigRef::resolve`] accepts.
    pub(crate) const PRESETS: [&'static str; 2] = ["mobile", "rtx2060"];

    /// A short human-readable label (`"mobile"`, or the inline config's
    /// own name).
    pub fn label(&self) -> &str {
        match self {
            ConfigRef::Preset(name) => name,
            ConfigRef::Inline(config) => &config.name,
        }
    }

    /// Resolves the reference to a validated [`GpuConfig`].
    ///
    /// # Errors
    ///
    /// Returns a message naming the unknown preset or the inline config's
    /// validation failure.
    pub fn resolve(&self) -> Result<GpuConfig, String> {
        let config = match self {
            ConfigRef::Preset(name) => match name.to_ascii_lowercase().as_str() {
                "mobile" | "mobile_soc" | "mobile-soc" => GpuConfig::mobile_soc(),
                "rtx2060" | "rtx-2060" | "rtx_2060" | "turing" => GpuConfig::rtx_2060(),
                other => {
                    return Err(format!(
                        "unknown GPU config preset '{other}' (expected one of: {})",
                        Self::PRESETS.join(", ")
                    ))
                }
            },
            ConfigRef::Inline(config) => config.as_ref().clone(),
        };
        config
            .validate()
            .map_err(|e| format!("GPU config '{}': {e}", self.label()))?;
        Ok(config)
    }
}

/// Hand-written: a preset renders as its bare name.
impl ToJson for ConfigRef {
    fn to_json(&self) -> Value {
        match self {
            ConfigRef::Preset(name) => Value::from(name.as_str()),
            ConfigRef::Inline(config) => config.to_json(),
        }
    }
}

impl FromJson for ConfigRef {
    fn from_json(value: &Value) -> Result<Self, JsonError> {
        match value {
            Value::String(name) => Ok(ConfigRef::Preset(name.clone())),
            Value::Object(_) => Ok(ConfigRef::inline(GpuConfig::from_json(value)?)),
            _ => Err(JsonError::mistyped(
                "config must be a preset name or an inline GpuConfig object",
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_resolve_and_label() {
        let c = ConfigRef::preset("mobile");
        assert_eq!(c.label(), "mobile");
        assert_eq!(c.resolve().unwrap().name, GpuConfig::mobile_soc().name);
        assert_eq!(
            ConfigRef::preset("Turing").resolve().unwrap().name,
            GpuConfig::rtx_2060().name
        );
        let err = ConfigRef::preset("quantum").resolve().unwrap_err();
        assert!(err.contains("unknown GPU config preset 'quantum'"), "{err}");
    }

    #[test]
    fn inline_round_trips_and_validates() {
        let mut config = GpuConfig::mobile_soc();
        config.name = "Tiny".into();
        let c = ConfigRef::inline(config);
        assert_eq!(c.label(), "Tiny");
        let back = ConfigRef::from_json(&c.to_json()).unwrap();
        assert_eq!(c, back);
        assert_eq!(back.resolve().unwrap().name, "Tiny");

        let mut broken = GpuConfig::mobile_soc();
        broken.num_sms = 0;
        let err = ConfigRef::inline(broken).resolve().unwrap_err();
        assert!(err.contains("GPU config"), "{err}");
    }

    #[test]
    fn malformed_json_is_rejected() {
        assert!(ConfigRef::from_json(&Value::from(3u64)).is_err());
        assert!(ConfigRef::from_json(&Value::Null).is_err());
        let v = Value::parse("{\"not_a_config\": true}").unwrap();
        assert!(ConfigRef::from_json(&v).is_err());
    }

    #[test]
    fn preset_name_round_trips_as_bare_string() {
        let c = ConfigRef::preset("rtx2060");
        assert_eq!(c.to_json(), Value::from("rtx2060"));
        assert_eq!(ConfigRef::from_json(&c.to_json()).unwrap(), c);
    }
}
