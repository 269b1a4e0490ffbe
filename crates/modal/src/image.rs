//! Synthetic images: the substitute for the paper's Wikidata painting corpus.
//!
//! The original prototype runs BLIP-2 over real painting images. In this
//! reproduction an [`ImageObject`] carries a structured *scene annotation*
//! (which entities are depicted and how often, plus categorical attributes
//! such as the dominant colour). The simulated VisualQA / ImageSelect models
//! answer questions against this annotation, so the *operator contract* —
//! natural-language question in, per-image structured value out — is exactly
//! the one the planner has to reason about.

use std::collections::BTreeMap;
use std::sync::Arc;

/// A single annotated image.
#[derive(Debug, Clone, PartialEq)]
pub struct ImageObject {
    /// Stable key, e.g. `img/17.png`; also used as the join key (`img_path`).
    pub key: String,
    /// Depicted entities and how many of each are visible.
    /// Stored sorted so prompt renderings and answers are deterministic.
    pub objects: BTreeMap<String, u32>,
    /// Categorical attributes (e.g. `style -> baroque`, `dominant_color -> red`).
    pub attributes: BTreeMap<String, String>,
}

impl ImageObject {
    /// Create an image with no annotations.
    pub fn new(key: impl Into<String>) -> Self {
        ImageObject {
            key: key.into(),
            objects: BTreeMap::new(),
            attributes: BTreeMap::new(),
        }
    }

    /// Add a depicted entity with a count.
    pub fn with_object(mut self, name: impl Into<String>, count: u32) -> Self {
        self.objects.insert(normalize_entity(&name.into()), count);
        self
    }

    /// Add a categorical attribute.
    pub fn with_attribute(mut self, name: impl Into<String>, value: impl Into<String>) -> Self {
        self.attributes
            .insert(name.into().to_lowercase(), value.into());
        self
    }

    /// Number of instances of an entity visible in the image (0 if absent).
    pub fn count_of(&self, entity: &str) -> u32 {
        let entity = normalize_entity(entity);
        if let Some(count) = self.objects.get(&entity) {
            return *count;
        }
        // Fall back to a whole-word match for single-word entities, so that
        // "angel" still matches an annotation like "guardian angel". Phrases
        // with "and" must not fall back (otherwise "madonna and horse" would
        // match a "madonna" annotation).
        if !entity.contains(' ') {
            return self
                .objects
                .iter()
                .find(|(name, _)| name.split_whitespace().any(|word| word == entity))
                .map(|(_, count)| *count)
                .unwrap_or(0);
        }
        0
    }

    /// Whether an entity (or phrase of entities joined by "and") is depicted.
    pub fn depicts(&self, entity: &str) -> bool {
        let phrase = normalize_entity(entity);
        if self.count_of(&phrase) > 0 {
            return true;
        }
        // "madonna and child" → require every part to be depicted.
        let parts: Vec<&str> = phrase.split(" and ").collect();
        parts.len() > 1 && parts.iter().all(|p| self.count_of(p) > 0)
    }

    /// Attribute lookup (case-insensitive key).
    pub fn attribute(&self, name: &str) -> Option<&str> {
        self.attributes
            .get(&name.to_lowercase())
            .map(String::as_str)
    }

    /// All depicted entity names, sorted.
    pub fn depicted_entities(&self) -> Vec<&str> {
        self.objects.keys().map(String::as_str).collect()
    }

    /// Human-readable caption (what a captioning model would produce).
    pub fn caption(&self) -> String {
        if self.objects.is_empty() {
            return "an abstract composition".to_string();
        }
        let parts: Vec<String> = self
            .objects
            .iter()
            .map(|(name, count)| {
                if *count == 1 {
                    format!("1 {name}")
                } else {
                    format!("{count} {name}s")
                }
            })
            .collect();
        format!("a painting depicting {}", parts.join(", "))
    }
}

/// Normalize an entity phrase: lowercase, trim, strip leading articles, and
/// strip a trailing plural 's' from the last word (so "a sword" / "swords" /
/// "sword" all refer to the same annotation).
pub fn normalize_entity(entity: &str) -> String {
    let mut lowered = entity.trim().to_lowercase();
    for article in ["a ", "an ", "the "] {
        if let Some(rest) = lowered.strip_prefix(article) {
            lowered = rest.to_string();
            break;
        }
    }
    let words: Vec<&str> = lowered.split_whitespace().collect();
    if words.is_empty() {
        return String::new();
    }
    let mut out: Vec<String> = words.iter().map(|w| w.to_string()).collect();
    let last = out.last_mut().expect("non-empty");
    if last.ends_with('s') && !last.ends_with("ss") && last.len() > 3 {
        last.pop();
    }
    out.join(" ")
}

/// A keyed collection of annotated images, addressable by image key.
///
/// Images are immutable once stored and shared through `Arc`: cloning a
/// store is a reference-count bump (every per-query executor holds one), and
/// [`ImageStore::insert`] copies the key map only when another clone still
/// shares it (copy on write), never the annotations.
#[derive(Debug, Clone, Default)]
pub struct ImageStore {
    images: Arc<BTreeMap<String, Arc<ImageObject>>>,
}

impl ImageStore {
    /// Create an empty store.
    pub fn new() -> Self {
        ImageStore::default()
    }

    /// Insert an image (replacing any previous image with the same key).
    /// Clones made earlier keep seeing the store as it was.
    pub fn insert(&mut self, image: ImageObject) {
        Arc::make_mut(&mut self.images).insert(image.key.clone(), Arc::new(image));
    }

    /// Look an image up by key.
    pub fn get(&self, key: &str) -> Option<&ImageObject> {
        self.images.get(key).map(|image| &**image)
    }

    /// Look an image up by key as a shared handle, for callers that keep the
    /// image beyond the borrow of the store (perception requests).
    pub fn get_shared(&self, key: &str) -> Option<&Arc<ImageObject>> {
        self.images.get(key)
    }

    /// Number of stored images.
    pub fn len(&self) -> usize {
        self.images.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.images.is_empty()
    }

    /// Iterate over all images in key order.
    pub fn iter(&self) -> impl Iterator<Item = &ImageObject> {
        self.images.values().map(|image| &**image)
    }

    /// All keys in order.
    pub fn keys(&self) -> Vec<&str> {
        self.images.keys().map(String::as_str).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn madonna_image() -> ImageObject {
        ImageObject::new("img/1.png")
            .with_object("Madonna", 1)
            .with_object("Child", 1)
            .with_object("sword", 2)
            .with_attribute("style", "renaissance")
    }

    #[test]
    fn count_of_handles_plural_and_case() {
        let img = madonna_image();
        assert_eq!(img.count_of("sword"), 2);
        assert_eq!(img.count_of("Swords"), 2);
        assert_eq!(img.count_of("SWORD"), 2);
        assert_eq!(img.count_of("horse"), 0);
    }

    #[test]
    fn depicts_supports_multi_entity_phrases() {
        let img = madonna_image();
        assert!(img.depicts("Madonna"));
        assert!(img.depicts("Madonna and Child"));
        assert!(!img.depicts("Madonna and Horse"));
    }

    #[test]
    fn attribute_lookup_is_case_insensitive() {
        let img = madonna_image();
        assert_eq!(img.attribute("Style"), Some("renaissance"));
        assert_eq!(img.attribute("genre"), None);
    }

    #[test]
    fn caption_describes_contents() {
        let caption = madonna_image().caption();
        assert!(caption.contains("madonna"));
        assert!(caption.contains("2 swords"));
        assert_eq!(ImageObject::new("x").caption(), "an abstract composition");
    }

    #[test]
    fn normalize_entity_strips_plurals_conservatively() {
        assert_eq!(normalize_entity("Swords"), "sword");
        assert_eq!(normalize_entity("glass"), "glass"); // double-s kept
        assert_eq!(normalize_entity("Madonna and Child"), "madonna and child");
        assert_eq!(normalize_entity("  Dogs "), "dog");
    }

    #[test]
    fn store_inserts_and_iterates_in_key_order() {
        let mut store = ImageStore::new();
        store.insert(ImageObject::new("img/2.png"));
        store.insert(ImageObject::new("img/1.png"));
        assert_eq!(store.len(), 2);
        assert_eq!(store.keys(), vec!["img/1.png", "img/2.png"]);
        assert!(store.get("img/1.png").is_some());
        assert!(store.get("img/9.png").is_none());
    }

    #[test]
    fn a_clone_shares_the_stored_images() {
        let mut store = ImageStore::new();
        store.insert(madonna_image());
        let copy = store.clone();
        assert!(std::ptr::eq(
            store.get("img/1.png").unwrap(),
            copy.get("img/1.png").unwrap()
        ));
    }

    #[test]
    fn insert_into_a_clone_leaves_the_original_unchanged() {
        let mut original = ImageStore::new();
        original.insert(madonna_image());
        let mut copy = original.clone();
        copy.insert(ImageObject::new("img/2.png").with_object("iris", 3));
        // Copy on write copies the key map, not the annotations.
        assert!(std::ptr::eq(
            original.get("img/1.png").unwrap(),
            copy.get("img/1.png").unwrap()
        ));
        copy.insert(ImageObject::new("img/1.png").with_object("horse", 1));

        assert_eq!(original.len(), 1);
        assert_eq!(original.keys(), vec!["img/1.png"]);
        assert_eq!(original.get("img/1.png"), Some(&madonna_image()));
        assert!(original.get("img/2.png").is_none());

        assert_eq!(copy.len(), 2);
        assert_eq!(copy.keys(), vec!["img/1.png", "img/2.png"]);
        assert_eq!(copy.get("img/1.png").unwrap().count_of("horse"), 1);
        assert_eq!(copy.get("img/1.png").unwrap().count_of("sword"), 0);
    }
}
