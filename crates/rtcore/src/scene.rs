//! Scene container: geometry, materials, lights, camera and the BVH.

use std::sync::OnceLock;

use crate::bvh::Bvh;
use crate::camera::Camera;
use crate::fingerprint::Fnv64;
use crate::geom::{Primitive, Sphere, Triangle};
use crate::material::{Material, MaterialId, Surface};
use crate::math::Vec3;

/// A point light used for next-event-estimation shadow rays (the green
/// "secondary ray towards the light source" in the paper's Fig. 1).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PointLight {
    /// Light position.
    pub position: Vec3,
    /// Radiant intensity (RGB).
    pub intensity: Vec3,
}

/// A complete renderable scene.
///
/// Construct with [`SceneBuilder`]; the builder finalizes the BVH.
#[derive(Debug, Clone)]
pub struct Scene {
    name: String,
    primitives: Vec<Primitive>,
    materials: Vec<Material>,
    lights: Vec<PointLight>,
    camera: Camera,
    bvh: Bvh,
    /// [`Scene::fingerprint`], hashed on its first call: rendering and
    /// simulating never read it.
    fingerprint: OnceLock<u64>,
}

impl Scene {
    /// Human-readable scene name (e.g. `"PARK"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// All primitives.
    pub fn primitives(&self) -> &[Primitive] {
        &self.primitives
    }

    /// Material table.
    pub fn materials(&self) -> &[Material] {
        &self.materials
    }

    /// Looks up a material.
    ///
    /// # Panics
    ///
    /// Panics if the id does not refer to this scene's material table.
    pub fn material(&self, id: MaterialId) -> &Material {
        &self.materials[id.0 as usize]
    }

    /// Point lights.
    pub fn lights(&self) -> &[PointLight] {
        &self.lights
    }

    /// The camera.
    pub fn camera(&self) -> &Camera {
        &self.camera
    }

    /// The acceleration structure.
    pub fn bvh(&self) -> &Bvh {
        &self.bvh
    }

    /// Total triangle + sphere count.
    pub fn primitive_count(&self) -> usize {
        self.primitives.len()
    }

    /// Content fingerprint over name, camera, materials, lights and every
    /// primitive (exact f32 bit patterns). Two scenes with identical
    /// content — regardless of how they were assembled — share a
    /// fingerprint, which keys cached derived artifacts (heatmaps,
    /// quantizations) in the `zatel` pipeline.
    ///
    /// Hashed on the first call, which pays for every primitive's bytes.
    pub fn fingerprint(&self) -> u64 {
        *self.fingerprint.get_or_init(|| {
            content_fingerprint(
                &self.name,
                &self.camera,
                &self.materials,
                &self.lights,
                &self.primitives,
            )
        })
    }
}

fn write_vec3(h: &mut Fnv64, v: Vec3) {
    h.write_f32(v.x).write_f32(v.y).write_f32(v.z);
}

fn content_fingerprint(
    name: &str,
    camera: &Camera,
    materials: &[Material],
    lights: &[PointLight],
    primitives: &[Primitive],
) -> u64 {
    let mut h = Fnv64::new();
    h.write_str("zatel-scene-v1");
    h.write_str(name);
    camera.write_fingerprint(&mut h);
    h.write_u64(materials.len() as u64);
    for m in materials {
        match m.surface {
            Surface::Diffuse => h.write_u8(0),
            Surface::Mirror { fuzz } => h.write_u8(1).write_f32(fuzz),
            Surface::Glass { ior } => h.write_u8(2).write_f32(ior),
            Surface::Emissive => h.write_u8(3),
        };
        write_vec3(&mut h, m.color);
    }
    h.write_u64(lights.len() as u64);
    for l in lights {
        write_vec3(&mut h, l.position);
        write_vec3(&mut h, l.intensity);
    }
    h.write_u64(primitives.len() as u64);
    for p in primitives {
        match p {
            Primitive::Triangle(t) => {
                h.write_u8(0);
                write_vec3(&mut h, t.a);
                write_vec3(&mut h, t.b);
                write_vec3(&mut h, t.c);
                h.write_u32(t.material.0);
            }
            Primitive::Sphere(s) => {
                h.write_u8(1);
                write_vec3(&mut h, s.center);
                h.write_f32(s.radius);
                h.write_u32(s.material.0);
            }
        }
    }
    h.finish()
}

/// Incrementally assembles a [`Scene`].
///
/// # Examples
///
/// ```
/// use rtcore::scene::SceneBuilder;
/// use rtcore::camera::Camera;
/// use rtcore::geom::Sphere;
/// use rtcore::material::Material;
/// use rtcore::math::Vec3;
///
/// let mut b = SceneBuilder::new("demo", Camera::look_at(
///     Vec3::new(0.0, 0.0, -5.0), Vec3::ZERO, Vec3::Y, 60.0));
/// let red = b.add_material(Material::diffuse(Vec3::new(0.8, 0.2, 0.2)));
/// b.add_sphere(Vec3::ZERO, 1.0, red);
/// b.add_light(Vec3::new(0.0, 10.0, -5.0), Vec3::splat(100.0));
/// let scene = b.build();
/// assert_eq!(scene.primitive_count(), 1);
/// ```
#[derive(Debug)]
pub struct SceneBuilder {
    name: String,
    primitives: Vec<Primitive>,
    materials: Vec<Material>,
    lights: Vec<PointLight>,
    camera: Camera,
}

impl SceneBuilder {
    /// Starts a new scene with a name and camera.
    pub fn new(name: impl Into<String>, camera: Camera) -> Self {
        SceneBuilder {
            name: name.into(),
            primitives: Vec::new(),
            materials: Vec::new(),
            lights: Vec::new(),
            camera,
        }
    }

    /// Registers a material and returns its id.
    pub fn add_material(&mut self, material: Material) -> MaterialId {
        let id = MaterialId(self.materials.len() as u32);
        self.materials.push(material);
        id
    }

    /// Adds a single triangle.
    pub fn add_triangle(&mut self, tri: Triangle) -> &mut Self {
        self.primitives.push(Primitive::Triangle(tri));
        self
    }

    /// Adds every triangle from an iterator (e.g. a procedural mesh).
    pub(crate) fn add_mesh<I: IntoIterator<Item = Triangle>>(&mut self, tris: I) -> &mut Self {
        self.primitives
            .extend(tris.into_iter().map(Primitive::Triangle));
        self
    }

    /// Adds an analytic sphere.
    pub fn add_sphere(&mut self, center: Vec3, radius: f32, material: MaterialId) -> &mut Self {
        self.primitives
            .push(Primitive::Sphere(Sphere::new(center, radius, material)));
        self
    }

    /// Adds a point light.
    pub fn add_light(&mut self, position: Vec3, intensity: Vec3) -> &mut Self {
        self.lights.push(PointLight {
            position,
            intensity,
        });
        self
    }

    /// Builds the BVH and finalizes the scene.
    ///
    /// # Panics
    ///
    /// Panics if any primitive references a material that was never added.
    pub fn build(self) -> Scene {
        for p in &self.primitives {
            assert!(
                (p.material().0 as usize) < self.materials.len(),
                "primitive references missing material {:?}",
                p.material()
            );
        }
        let bvh = Bvh::build(&self.primitives);
        Scene {
            name: self.name,
            primitives: self.primitives,
            materials: self.materials,
            lights: self.lights,
            camera: self.camera,
            bvh,
            fingerprint: OnceLock::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geom::mesh;

    fn camera() -> Camera {
        Camera::look_at(Vec3::new(0.0, 0.0, -5.0), Vec3::ZERO, Vec3::Y, 60.0)
    }

    #[test]
    fn builder_assembles_scene() {
        let mut b = SceneBuilder::new("t", camera());
        let m = b.add_material(Material::diffuse(Vec3::ONE));
        b.add_sphere(Vec3::ZERO, 1.0, m);
        b.add_mesh(mesh::cuboid(Vec3::ZERO, Vec3::ONE, m));
        b.add_light(Vec3::Y * 5.0, Vec3::splat(10.0));
        let s = b.build();
        assert_eq!(s.name(), "t");
        assert_eq!(s.primitive_count(), 13);
        assert_eq!(s.lights().len(), 1);
        assert_eq!(s.materials().len(), 1);
        assert!(s.bvh().node_count() >= 1);
    }

    #[test]
    #[should_panic(expected = "missing material")]
    fn missing_material_panics() {
        let mut b = SceneBuilder::new("bad", camera());
        b.add_sphere(Vec3::ZERO, 1.0, MaterialId(3));
        b.build();
    }

    #[test]
    fn fingerprint_is_stable_and_content_sensitive() {
        let build = |radius: f32| {
            let mut b = SceneBuilder::new("fp", camera());
            let m = b.add_material(Material::diffuse(Vec3::ONE));
            b.add_sphere(Vec3::ZERO, radius, m);
            b.add_light(Vec3::Y * 5.0, Vec3::splat(10.0));
            b.build()
        };
        let a = build(1.0);
        let b = build(1.0);
        assert_eq!(a.fingerprint(), b.fingerprint(), "same content, same fp");
        let c = build(1.5);
        assert_ne!(a.fingerprint(), c.fingerprint(), "geometry change, new fp");
    }

    #[test]
    fn fingerprint_depends_on_name() {
        let build = |name: &str| {
            let mut b = SceneBuilder::new(name, camera());
            let m = b.add_material(Material::diffuse(Vec3::ONE));
            b.add_sphere(Vec3::ZERO, 1.0, m);
            b.build()
        };
        assert_ne!(build("a").fingerprint(), build("b").fingerprint());
    }

    #[test]
    fn material_lookup_roundtrip() {
        let mut b = SceneBuilder::new("m", camera());
        let a = b.add_material(Material::diffuse(Vec3::X));
        let c = b.add_material(Material::glass(1.5));
        b.add_sphere(Vec3::ZERO, 1.0, a);
        let s = b.build();
        assert_eq!(s.material(a).color, Vec3::X);
        assert!(matches!(
            s.material(c).surface,
            crate::material::Surface::Glass { .. }
        ));
    }
}
