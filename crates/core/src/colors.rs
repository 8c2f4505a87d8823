//! The color hierarchy (region tree) and `AddColor` (Table 2).
//!
//! Colors form a tree rooted at the master region (§4): a new color is a
//! sub-region of its parent, ordered by the sequencer that owns the parent
//! and stored on the shards of that sequencer's region. `AddColor` is a
//! metadata operation — one [`Change`] to the cluster's [`Catalog`], which
//! sequencers consult on every flush and clients on every route — so a new
//! color is usable the moment it returns, without any protocol round.

use flexlog_ordering::{Catalog, Change, ColorError, RoleId};
use flexlog_types::ColorId;

/// Table 2's color API over the cluster's catalog. Cheap to clone.
#[derive(Clone)]
pub struct ColorAdmin {
    catalog: Catalog,
}

impl ColorAdmin {
    pub(crate) fn new(catalog: Catalog) -> Self {
        ColorAdmin { catalog }
    }

    /// `AddColor(c, c_p)`: creates the `color` log as a sub-region of
    /// `parent`. The new color inherits the parent's ordering root and is
    /// stored on that region's shards.
    pub fn add_color(&self, color: ColorId, parent: ColorId) -> Result<(), ColorError> {
        self.catalog.apply(Change::AddColor { color, parent }).map(drop)
    }

    /// Creates `color` as a *locally ordered* region owned directly by
    /// `role` (the FlexLog-P configuration: the leaf is the serialization
    /// point and the root is never consulted, §9.1).
    pub fn add_color_at(&self, color: ColorId, role: RoleId) -> Result<(), ColorError> {
        self.catalog.apply(Change::PlaceColor { color, role }).map(drop)
    }

    /// The parent of `color` (None for the master region or unknown colors).
    pub fn parent(&self, color: ColorId) -> Option<ColorId> {
        self.catalog.parent(color)
    }

    /// True if the color exists.
    pub fn exists(&self, color: ColorId) -> bool {
        self.catalog.contains(color)
    }

    /// All known colors, sorted.
    pub fn colors(&self) -> Vec<ColorId> {
        self.catalog.colors()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One shard under leaf 1; the master region at the root.
    fn admin() -> (ColorAdmin, Catalog) {
        let catalog = Catalog::uniform(1, 1, 0, &[RoleId(1)]);
        catalog.apply(Change::PlaceColor { color: ColorId::MASTER, role: RoleId(0) }).unwrap();
        (ColorAdmin::new(catalog.clone()), catalog)
    }

    #[test]
    fn add_color_inherits_parent_owner() {
        let (a, catalog) = admin();
        a.add_color(ColorId(1), ColorId::MASTER).unwrap();
        assert_eq!(catalog.owner(ColorId(1)), Some(RoleId(0)));
        assert_eq!(a.parent(ColorId(1)), Some(ColorId::MASTER));
        // Grandchild inherits transitively.
        a.add_color(ColorId(2), ColorId(1)).unwrap();
        assert_eq!(catalog.owner(ColorId(2)), Some(RoleId(0)));
    }

    #[test]
    fn duplicate_color_rejected() {
        let (a, _) = admin();
        a.add_color(ColorId(1), ColorId::MASTER).unwrap();
        assert_eq!(
            a.add_color(ColorId(1), ColorId::MASTER),
            Err(ColorError::AlreadyExists(ColorId(1)))
        );
    }

    #[test]
    fn unknown_parent_rejected() {
        let (a, _) = admin();
        assert_eq!(
            a.add_color(ColorId(5), ColorId(99)),
            Err(ColorError::UnknownParent(ColorId(99)))
        );
    }

    #[test]
    fn leaf_local_color() {
        let (a, catalog) = admin();
        a.add_color_at(ColorId(7), RoleId(1)).unwrap();
        assert_eq!(catalog.owner(ColorId(7)), Some(RoleId(1)));
        assert!(a.exists(ColorId(7)));
    }

    #[test]
    fn colors_listing() {
        let (a, _) = admin();
        a.add_color(ColorId(3), ColorId::MASTER).unwrap();
        a.add_color(ColorId(1), ColorId::MASTER).unwrap();
        assert_eq!(a.colors(), vec![ColorId::MASTER, ColorId(1), ColorId(3)]);
    }
}
