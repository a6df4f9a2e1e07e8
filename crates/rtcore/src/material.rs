//! Surface materials for the functional path tracer.

use crate::math::Vec3;

/// Index of a material within a scene's material table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MaterialId(pub u32);

/// How a surface scatters light.
///
/// The mix of surface kinds is what differentiates the benchmark scenes'
/// ray-divergence behaviour: mirrors and glass spawn coherent secondary rays
/// with long traversals, while diffuse surfaces spawn incoherent bounces.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Surface {
    /// Lambertian diffuse reflection.
    Diffuse,
    /// Perfect mirror with the given fuzz (0 = sharp).
    Mirror {
        /// Cone angle of reflection perturbation, in `[0, 1]`.
        fuzz: f32,
    },
    /// Dielectric refraction (glass, water).
    Glass {
        /// Index of refraction (e.g. 1.5 for glass).
        ior: f32,
    },
    /// Light source; terminates paths and contributes emission.
    Emissive,
}

/// A complete material: scattering model plus albedo/emission colour.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Material {
    /// Scattering behaviour.
    pub surface: Surface,
    /// Albedo for reflective surfaces; radiance for [`Surface::Emissive`].
    pub color: Vec3,
}

impl Material {
    /// Lambertian diffuse material.
    pub fn diffuse(color: Vec3) -> Self {
        Material {
            surface: Surface::Diffuse,
            color,
        }
    }

    /// Mirror material with optional fuzz.
    pub(crate) fn mirror(color: Vec3, fuzz: f32) -> Self {
        Material {
            surface: Surface::Mirror {
                fuzz: fuzz.clamp(0.0, 1.0),
            },
            color,
        }
    }

    /// Glass material with index of refraction `ior`.
    pub(crate) fn glass(ior: f32) -> Self {
        Material {
            surface: Surface::Glass { ior },
            color: Vec3::ONE,
        }
    }

    /// Relative shading cost in abstract ALU operations; consumed by the
    /// timing model to size the compute portion of a shade step.
    pub fn shading_cost(&self) -> u32 {
        match self.surface {
            Surface::Diffuse => 24,
            Surface::Mirror { .. } => 16,
            Surface::Glass { .. } => 40,
            Surface::Emissive => 4,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_set_surface() {
        assert!(matches!(
            Material::diffuse(Vec3::ONE).surface,
            Surface::Diffuse
        ));
        assert!(matches!(
            Material::mirror(Vec3::ONE, 0.1).surface,
            Surface::Mirror { .. }
        ));
        assert!(matches!(
            Material::glass(1.5).surface,
            Surface::Glass { .. }
        ));
    }

    #[test]
    fn mirror_fuzz_is_clamped() {
        let m = Material::mirror(Vec3::ONE, 3.0);
        match m.surface {
            Surface::Mirror { fuzz } => assert_eq!(fuzz, 1.0),
            _ => unreachable!(),
        }
    }

    #[test]
    fn shading_costs_ordered_by_complexity() {
        let e = Material {
            surface: Surface::Emissive,
            color: Vec3::ONE,
        }
        .shading_cost();
        let m = Material::mirror(Vec3::ONE, 0.0).shading_cost();
        let d = Material::diffuse(Vec3::ONE).shading_cost();
        let g = Material::glass(1.5).shading_cost();
        assert!(e < m && m < d && d < g);
    }
}
