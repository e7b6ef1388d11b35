//! Mesh topology: coordinates, node ids, ports and XY routing.

use core::fmt;

/// A node's position in the mesh.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Coord {
    /// Column, `0..width`.
    pub x: u8,
    /// Row, `0..height`.
    pub y: u8,
}

impl Coord {
    /// Creates a coordinate.
    pub const fn new(x: u8, y: u8) -> Coord {
        Coord { x, y }
    }
}

impl fmt::Display for Coord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({},{})", self.x, self.y)
    }
}

/// A flat node identifier: `id = y * width + x`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct NodeId(pub u16);

impl NodeId {
    /// Converts to a flat index.
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// A link direction out of a router.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Direction {
    /// Toward larger `y`.
    North,
    /// Toward smaller `y`.
    South,
    /// Toward larger `x`.
    East,
    /// Toward smaller `x`.
    West,
}

impl Direction {
    /// The opposite direction (the input port a flit arrives on after
    /// traversing a link in this direction).
    pub const fn opposite(self) -> Direction {
        match self {
            Direction::North => Direction::South,
            Direction::South => Direction::North,
            Direction::East => Direction::West,
            Direction::West => Direction::East,
        }
    }
}

/// Number of ports on a mesh router (4 links + local).
pub const PORTS: usize = Port::ALL.len();

/// A router port: four mesh links plus the local (tile) port.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Port {
    /// Mesh link.
    Dir(Direction),
    /// The tile's network interface.
    Local,
}

impl Port {
    /// All five ports, in a fixed arbitration order.
    pub const ALL: [Port; 5] = [
        Port::Local,
        Port::Dir(Direction::North),
        Port::Dir(Direction::South),
        Port::Dir(Direction::East),
        Port::Dir(Direction::West),
    ];

    /// A dense index in `0..5` for table lookups.
    pub const fn index(self) -> usize {
        match self {
            Port::Local => 0,
            Port::Dir(Direction::North) => 1,
            Port::Dir(Direction::South) => 2,
            Port::Dir(Direction::East) => 3,
            Port::Dir(Direction::West) => 4,
        }
    }
}

/// Mesh geometry and routing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Mesh {
    /// Columns.
    pub width: u8,
    /// Rows.
    pub height: u8,
}

impl Mesh {
    /// Creates a mesh.
    ///
    /// # Panics
    ///
    /// Panics on zero dimensions.
    pub fn new(width: u8, height: u8) -> Mesh {
        assert!(width > 0 && height > 0, "mesh dimensions must be positive");
        Mesh { width, height }
    }

    /// Number of nodes.
    pub const fn nodes(&self) -> usize {
        self.width as usize * self.height as usize
    }

    /// Maps a coordinate to a node id.
    pub const fn node(&self, c: Coord) -> NodeId {
        NodeId(c.y as u16 * self.width as u16 + c.x as u16)
    }

    /// Maps a node id back to a coordinate.
    pub const fn coord(&self, n: NodeId) -> Coord {
        Coord {
            x: (n.0 % self.width as u16) as u8,
            y: (n.0 / self.width as u16) as u8,
        }
    }

    /// Returns `true` if `n` is a valid node id for this mesh.
    pub const fn contains(&self, n: NodeId) -> bool {
        (n.0 as usize) < self.nodes()
    }

    /// The neighbour of `n` in direction `d`, if any (mesh edges have none).
    pub fn neighbor(&self, n: NodeId, d: Direction) -> Option<NodeId> {
        let c = self.coord(n);
        let (x, y) = match d {
            Direction::North => (c.x as i16, c.y as i16 + 1),
            Direction::South => (c.x as i16, c.y as i16 - 1),
            Direction::East => (c.x as i16 + 1, c.y as i16),
            Direction::West => (c.x as i16 - 1, c.y as i16),
        };
        if x < 0 || y < 0 || x >= self.width as i16 || y >= self.height as i16 {
            None
        } else {
            Some(self.node(Coord::new(x as u8, y as u8)))
        }
    }

    /// Dimension-order (XY) routing: the output port a flit at `here` takes
    /// toward `dst`. Returns [`Port::Local`] when `here == dst`.
    ///
    /// XY routing resolves X first, then Y; because no packet ever turns
    /// from a Y link back onto an X link, the channel-dependency graph is
    /// acyclic and the mesh is deadlock-free.
    pub fn route(&self, here: NodeId, dst: NodeId) -> Port {
        let h = self.coord(here);
        let d = self.coord(dst);
        if h.x < d.x {
            Port::Dir(Direction::East)
        } else if h.x > d.x {
            Port::Dir(Direction::West)
        } else if h.y < d.y {
            Port::Dir(Direction::North)
        } else if h.y > d.y {
            Port::Dir(Direction::South)
        } else {
            Port::Local
        }
    }

    /// Manhattan hop distance between two nodes.
    pub fn hops(&self, a: NodeId, b: NodeId) -> u32 {
        let ca = self.coord(a);
        let cb = self.coord(b);
        (ca.x.abs_diff(cb.x) as u32) + (ca.y.abs_diff(cb.y) as u32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coord_node_roundtrip() {
        let m = Mesh::new(4, 3);
        for y in 0..3 {
            for x in 0..4 {
                let c = Coord::new(x, y);
                assert_eq!(m.coord(m.node(c)), c);
            }
        }
        assert_eq!(m.nodes(), 12);
    }

    #[test]
    fn neighbors_respect_edges() {
        let m = Mesh::new(3, 3);
        let corner = m.node(Coord::new(0, 0));
        assert_eq!(m.neighbor(corner, Direction::West), None);
        assert_eq!(m.neighbor(corner, Direction::South), None);
        assert_eq!(
            m.neighbor(corner, Direction::East),
            Some(m.node(Coord::new(1, 0)))
        );
        assert_eq!(
            m.neighbor(corner, Direction::North),
            Some(m.node(Coord::new(0, 1)))
        );
    }

    #[test]
    fn neighbor_is_symmetric() {
        let m = Mesh::new(5, 4);
        for n in 0..m.nodes() {
            let n = NodeId(n as u16);
            for d in [
                Direction::North,
                Direction::South,
                Direction::East,
                Direction::West,
            ] {
                if let Some(nb) = m.neighbor(n, d) {
                    assert_eq!(m.neighbor(nb, d.opposite()), Some(n));
                }
            }
        }
    }

    #[test]
    fn xy_route_reaches_destination() {
        let m = Mesh::new(6, 6);
        for a in 0..m.nodes() {
            for b in 0..m.nodes() {
                let (src, dst) = (NodeId(a as u16), NodeId(b as u16));
                let mut here = src;
                let mut steps = 0;
                loop {
                    match m.route(here, dst) {
                        Port::Local => break,
                        Port::Dir(d) => {
                            here = m.neighbor(here, d).expect("route never leaves mesh");
                            steps += 1;
                            assert!(steps <= 12, "routing loop {src}->{dst}");
                        }
                    }
                }
                assert_eq!(here, dst);
                assert_eq!(steps, m.hops(src, dst));
            }
        }
    }

    #[test]
    fn xy_resolves_x_first() {
        let m = Mesh::new(4, 4);
        let src = m.node(Coord::new(0, 0));
        let dst = m.node(Coord::new(3, 3));
        assert_eq!(m.route(src, dst), Port::Dir(Direction::East));
        let mid = m.node(Coord::new(3, 0));
        assert_eq!(m.route(mid, dst), Port::Dir(Direction::North));
    }

    #[test]
    fn port_indices_are_dense_and_unique() {
        let mut seen = [false; 5];
        for p in Port::ALL {
            assert!(!seen[p.index()]);
            seen[p.index()] = true;
        }
        assert!(seen.iter().all(|&b| b));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_mesh_rejected() {
        Mesh::new(0, 3);
    }
}
