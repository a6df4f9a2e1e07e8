//! Error type for the Zatel pipeline.

use gpusim::DownscaleError;

/// Errors returned by [`crate::Zatel`].
#[derive(Debug, Clone, PartialEq)]
pub enum ZatelError {
    /// The GPU configuration cannot be downscaled by the requested factor.
    Downscale(DownscaleError),
    /// An option combination is invalid (details in the message).
    InvalidOptions(String),
    /// The image divides into too few chunks to give each of the K groups a
    /// pixel.
    TooFewChunks {
        /// Image width in pixels.
        width: u32,
        /// Image height in pixels.
        height: u32,
        /// Number of groups.
        k: u32,
        /// Chunks the division deals out.
        chunks: u64,
    },
}

impl std::fmt::Display for ZatelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ZatelError::Downscale(e) => write!(f, "{e}"),
            ZatelError::InvalidOptions(msg) => write!(f, "invalid Zatel options: {msg}"),
            ZatelError::TooFewChunks {
                width,
                height,
                k,
                chunks,
            } => write!(
                f,
                "a {width}x{height} image divides into {chunks} chunk(s), too few to give \
                 each of K = {k} groups a pixel; raise the resolution or lower K"
            ),
        }
    }
}

impl std::error::Error for ZatelError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ZatelError::Downscale(e) => Some(e),
            ZatelError::InvalidOptions(_) | ZatelError::TooFewChunks { .. } => None,
        }
    }
}

impl From<DownscaleError> for ZatelError {
    fn from(e: DownscaleError) -> Self {
        ZatelError::Downscale(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpusim::GpuConfig;

    #[test]
    fn display_wraps_sources() {
        let err: ZatelError = GpuConfig::mobile_soc().downscaled(3).unwrap_err().into();
        assert!(err.to_string().contains("cannot downscale"));
        let err = ZatelError::InvalidOptions("k must divide".into());
        assert!(err.to_string().contains("invalid Zatel options"));
    }

    #[test]
    fn error_trait_source() {
        use std::error::Error;
        let err: ZatelError = GpuConfig::mobile_soc().downscaled(0).unwrap_err().into();
        assert!(err.source().is_some());
        assert!(ZatelError::InvalidOptions(String::new()).source().is_none());
    }
}
