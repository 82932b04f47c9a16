//! The system: arena of processes, blocks, operations and dependency edges.

use std::collections::{HashMap, HashSet};

use crate::block::{Block, BlockId};
use crate::error::IrError;
use crate::graph;
use crate::op::{OpId, Operation};
use crate::process::{Process, ProcessId};
use crate::resource::{ResourceLibrary, ResourceTypeId};

/// A complete multi-process system ready for scheduling.
///
/// Construct via [`SystemBuilder`]; a built system is structurally valid:
/// every block is a DAG whose critical path fits its time range (condition
/// (C1)), and no dependency crosses a block boundary.
#[derive(Debug, Clone, PartialEq)]
pub struct System {
    library: ResourceLibrary,
    processes: Vec<Process>,
    blocks: Vec<Block>,
    ops: Vec<Operation>,
    succs: Vec<Vec<OpId>>,
    preds: Vec<Vec<OpId>>,
    /// Per-block topological orders, precomputed at build time (the
    /// system is immutable and schedulers request them on hot paths).
    topo: Vec<Vec<OpId>>,
    /// `topo_pos[op]`: position of `op` in its block's topological order.
    topo_pos: Vec<u32>,
}

impl System {
    /// The resource library of this system.
    pub fn library(&self) -> &ResourceLibrary {
        &self.library
    }

    /// Looks an operation up by id.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this system.
    pub fn op(&self, id: OpId) -> &Operation {
        &self.ops[id.index()]
    }

    /// Looks a block up by id.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this system.
    pub fn block(&self, id: BlockId) -> &Block {
        &self.blocks[id.index()]
    }

    /// Looks a process up by id.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this system.
    pub fn process(&self, id: ProcessId) -> &Process {
        &self.processes[id.index()]
    }

    /// Iterates over all operation ids in creation order.
    pub fn op_ids(&self) -> impl Iterator<Item = OpId> {
        (0..self.ops.len() as u32).map(OpId)
    }

    /// Iterates over all operations as `(id, op)` pairs.
    pub fn ops(&self) -> impl Iterator<Item = (OpId, &Operation)> {
        self.ops
            .iter()
            .enumerate()
            .map(|(i, o)| (OpId(i as u32), o))
    }

    /// Iterates over all block ids in creation order.
    pub fn block_ids(&self) -> impl Iterator<Item = BlockId> {
        (0..self.blocks.len() as u32).map(BlockId)
    }

    /// Iterates over all blocks as `(id, block)` pairs.
    pub fn blocks(&self) -> impl Iterator<Item = (BlockId, &Block)> {
        self.blocks
            .iter()
            .enumerate()
            .map(|(i, b)| (BlockId(i as u32), b))
    }

    /// Iterates over all process ids in creation order.
    pub fn process_ids(&self) -> impl Iterator<Item = ProcessId> {
        (0..self.processes.len() as u32).map(ProcessId)
    }

    /// Iterates over all processes as `(id, process)` pairs.
    pub fn processes(&self) -> impl Iterator<Item = (ProcessId, &Process)> {
        self.processes
            .iter()
            .enumerate()
            .map(|(i, p)| (ProcessId(i as u32), p))
    }

    /// Number of operations in the system.
    pub fn num_ops(&self) -> usize {
        self.ops.len()
    }

    /// Number of blocks in the system.
    pub fn num_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// Number of processes in the system.
    pub fn num_processes(&self) -> usize {
        self.processes.len()
    }

    /// Direct successors (data-dependent operations) of `op`.
    pub fn succs(&self, op: OpId) -> &[OpId] {
        &self.succs[op.index()]
    }

    /// Direct predecessors of `op`.
    pub fn preds(&self, op: OpId) -> &[OpId] {
        &self.preds[op.index()]
    }

    /// Execution delay of `op` in control steps.
    pub fn delay(&self, op: OpId) -> u32 {
        self.library.get(self.ops[op.index()].rtype).delay()
    }

    /// Number of control steps `op` occupies its resource
    /// (see [`crate::ResourceType::occupancy`]).
    pub fn occupancy(&self, op: OpId) -> u32 {
        self.library.get(self.ops[op.index()].rtype).occupancy()
    }

    /// A topological order of the operations of `block`, precomputed at
    /// build time.
    pub fn topo_order(&self, block: BlockId) -> &[OpId] {
        &self.topo[block.index()]
    }

    /// Position of `op` in [`System::topo_order`] of its block: every
    /// predecessor of `op` has a smaller position, every successor a
    /// larger one.
    pub fn topo_position(&self, op: OpId) -> usize {
        self.topo_pos[op.index()] as usize
    }

    /// Length of the longest dependency chain of `block` in control steps
    /// (the minimum feasible time range).
    pub fn critical_path(&self, block: BlockId) -> u32 {
        graph::longest_path(
            self.block(block).ops(),
            |o| self.succs(o),
            |o| self.delay(o),
        )
        .expect("built systems are acyclic")
    }

    fn compute_topo_orders(&mut self) -> Result<(), IrError> {
        let mut topo = Vec::with_capacity(self.blocks.len());
        for block in &self.blocks {
            let order =
                graph::topo_order(&block.ops, |o| &self.succs[o.index()]).ok_or_else(|| {
                    IrError::Cycle {
                        block: block.name.clone(),
                    }
                })?;
            topo.push(order);
        }
        let mut topo_pos = vec![0; self.ops.len()];
        for order in &topo {
            for (pos, o) in order.iter().enumerate() {
                topo_pos[o.index()] = pos as u32;
            }
        }
        self.topo = topo;
        self.topo_pos = topo_pos;
        Ok(())
    }

    /// Resource types used anywhere in `process`.
    pub fn types_used_by_process(&self, process: ProcessId) -> Vec<ResourceTypeId> {
        let mut seen = HashSet::new();
        let mut out = Vec::new();
        for &b in self.process(process).blocks() {
            for &o in self.block(b).ops() {
                let t = self.op(o).rtype;
                if seen.insert(t) {
                    out.push(t);
                }
            }
        }
        out.sort();
        out
    }

    /// Resource types used inside `block`.
    pub fn types_used_by_block(&self, block: BlockId) -> Vec<ResourceTypeId> {
        let mut seen = HashSet::new();
        let mut out = Vec::new();
        for &o in self.block(block).ops() {
            let t = self.op(o).rtype;
            if seen.insert(t) {
                out.push(t);
            }
        }
        out.sort();
        out
    }

    /// Processes that use resource type `rtype` (the paper's set
    /// `uses(k)`).
    pub fn users_of_type(&self, rtype: ResourceTypeId) -> Vec<ProcessId> {
        self.process_ids()
            .filter(|&p| self.types_used_by_process(p).contains(&rtype))
            .collect()
    }

    /// Operations of `block` executing on `rtype`.
    pub fn ops_of_type(&self, block: BlockId, rtype: ResourceTypeId) -> Vec<OpId> {
        self.block(block)
            .ops()
            .iter()
            .copied()
            .filter(|&o| self.op(o).rtype == rtype)
            .collect()
    }

    /// Resolves an operation by `(block, name)`.
    pub fn op_by_name(&self, block: BlockId, name: &str) -> Option<OpId> {
        self.block(block)
            .ops()
            .iter()
            .copied()
            .find(|&o| self.op(o).name == name)
    }

    /// Resolves a block by `(process, name)`.
    pub fn block_by_name(&self, process: ProcessId, name: &str) -> Option<BlockId> {
        self.process(process)
            .blocks()
            .iter()
            .copied()
            .find(|&b| self.block(b).name == name)
    }

    /// Resolves a process by name.
    pub fn process_by_name(&self, name: &str) -> Option<ProcessId> {
        self.processes()
            .find(|(_, p)| p.name == name)
            .map(|(id, _)| id)
    }
}

/// Incremental constructor for a [`System`].
///
/// The builder checks local properties eagerly (cross-block edges, duplicate
/// edges, self-edges) and global ones — acyclicity and deadline feasibility —
/// in [`SystemBuilder::build`].
///
/// # Example
///
/// ```
/// use tcms_ir::{ResourceLibrary, ResourceType, SystemBuilder};
///
/// # fn main() -> Result<(), tcms_ir::IrError> {
/// let mut lib = ResourceLibrary::new();
/// let add = lib.add(ResourceType::new("add", 1))?;
/// let mut b = SystemBuilder::new(lib);
/// let p = b.add_process("p0");
/// let blk = b.add_block(p, "body", 4)?;
/// let x = b.add_op(blk, "x", add)?;
/// let y = b.add_op(blk, "y", add)?;
/// b.add_dep(x, y)?;
/// let sys = b.build()?;
/// assert_eq!(sys.critical_path(blk), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct SystemBuilder {
    library: ResourceLibrary,
    processes: Vec<Process>,
    blocks: Vec<Block>,
    ops: Vec<Operation>,
    succs: Vec<Vec<OpId>>,
    preds: Vec<Vec<OpId>>,
    edge_set: HashSet<(OpId, OpId)>,
    op_names: HashMap<(BlockId, String), OpId>,
}

impl SystemBuilder {
    /// Starts building a system over the given resource library.
    pub fn new(library: ResourceLibrary) -> Self {
        SystemBuilder {
            library,
            processes: Vec::new(),
            blocks: Vec::new(),
            ops: Vec::new(),
            succs: Vec::new(),
            preds: Vec::new(),
            edge_set: HashSet::new(),
            op_names: HashMap::new(),
        }
    }

    /// Read access to the library (e.g. to resolve type names while
    /// building).
    pub fn library(&self) -> &ResourceLibrary {
        &self.library
    }

    /// Adds a process.
    ///
    /// # Panics
    ///
    /// Panics if the process count would overflow the `u32` id space.
    pub fn add_process(&mut self, name: impl Into<String>) -> ProcessId {
        assert!(
            self.processes.len() < u32::MAX as usize,
            "process count overflows the id space"
        );
        let id = ProcessId(self.processes.len() as u32);
        self.processes.push(Process {
            name: name.into(),
            blocks: Vec::new(),
        });
        id
    }

    /// Adds a block with `time_range` control steps to `process`.
    ///
    /// # Errors
    ///
    /// Returns [`IrError::ZeroTimeRange`] if `time_range == 0`.
    ///
    /// # Panics
    ///
    /// Panics if `process` was not created by this builder.
    pub fn add_block(
        &mut self,
        process: ProcessId,
        name: impl Into<String>,
        time_range: u32,
    ) -> Result<BlockId, IrError> {
        let name = name.into();
        if time_range == 0 {
            return Err(IrError::ZeroTimeRange { name });
        }
        assert!(
            self.blocks.len() < u32::MAX as usize,
            "block count overflows the id space"
        );
        let id = BlockId(self.blocks.len() as u32);
        self.blocks.push(Block {
            name,
            process,
            time_range,
            ops: Vec::new(),
        });
        self.processes[process.index()].blocks.push(id);
        Ok(id)
    }

    /// Adds an operation of type `rtype` to `block`.
    ///
    /// # Errors
    ///
    /// Returns [`IrError::DuplicateOpName`] if an operation of the same name
    /// already exists in the block (names double as identifiers in the text
    /// format).
    ///
    /// # Panics
    ///
    /// Panics if `block` or `rtype` was not created by this builder's
    /// library.
    pub fn add_op(
        &mut self,
        block: BlockId,
        name: impl Into<String>,
        rtype: ResourceTypeId,
    ) -> Result<OpId, IrError> {
        let name = name.into();
        assert!(rtype.index() < self.library.len(), "foreign resource type");
        if self.op_names.contains_key(&(block, name.clone())) {
            return Err(IrError::DuplicateOpName {
                op: name,
                block: self.blocks[block.index()].name.clone(),
            });
        }
        assert!(
            self.ops.len() < u32::MAX as usize,
            "operation count overflows the id space"
        );
        let id = OpId(self.ops.len() as u32);
        self.ops.push(Operation {
            name: name.clone(),
            rtype,
            block,
        });
        self.succs.push(Vec::new());
        self.preds.push(Vec::new());
        self.blocks[block.index()].ops.push(id);
        self.op_names.insert((block, name), id);
        Ok(id)
    }

    /// Adds a data dependency `from -> to` (the result of `from` is an input
    /// of `to`).
    ///
    /// # Errors
    ///
    /// * [`IrError::SelfEdge`] if `from == to`,
    /// * [`IrError::CrossBlockEdge`] if the operations live in different
    ///   blocks (condition (C1)),
    /// * [`IrError::DuplicateEdge`] if the edge already exists.
    pub fn add_dep(&mut self, from: OpId, to: OpId) -> Result<(), IrError> {
        if from == to {
            return Err(IrError::SelfEdge {
                op: self.ops[from.index()].name.clone(),
            });
        }
        if self.ops[from.index()].block != self.ops[to.index()].block {
            return Err(IrError::CrossBlockEdge {
                from: self.ops[from.index()].name.clone(),
                to: self.ops[to.index()].name.clone(),
            });
        }
        if !self.edge_set.insert((from, to)) {
            return Err(IrError::DuplicateEdge {
                from: self.ops[from.index()].name.clone(),
                to: self.ops[to.index()].name.clone(),
            });
        }
        self.succs[from.index()].push(to);
        self.preds[to.index()].push(from);
        Ok(())
    }

    /// Convenience: adds an operation together with dependencies from all
    /// `preds`.
    ///
    /// # Errors
    ///
    /// Propagates the errors of [`SystemBuilder::add_op`] and
    /// [`SystemBuilder::add_dep`].
    pub fn add_op_with_preds(
        &mut self,
        block: BlockId,
        name: impl Into<String>,
        rtype: ResourceTypeId,
        preds: &[OpId],
    ) -> Result<OpId, IrError> {
        let id = self.add_op(block, name, rtype)?;
        for &p in preds {
            self.add_dep(p, id)?;
        }
        Ok(id)
    }

    /// Resolves an operation under construction by `(block, name)`.
    pub fn op_in_block_by_name(&self, block: BlockId, name: &str) -> Option<OpId> {
        self.op_names.get(&(block, name.to_owned())).copied()
    }

    /// Finalises the system, checking acyclicity and deadline feasibility
    /// of every block.
    ///
    /// # Errors
    ///
    /// * [`IrError::Cycle`] if a block's dependency graph has a cycle,
    /// * [`IrError::InfeasibleDeadline`] if a block's critical path exceeds
    ///   its time range.
    pub fn build(self) -> Result<System, IrError> {
        let mut sys = System {
            library: self.library,
            processes: self.processes,
            blocks: self.blocks,
            ops: self.ops,
            succs: self.succs,
            preds: self.preds,
            topo: Vec::new(),
            topo_pos: Vec::new(),
        };
        sys.compute_topo_orders()?;
        for (bid, block) in sys.blocks() {
            let cp = sys.critical_path(bid);
            if cp > block.time_range {
                return Err(IrError::InfeasibleDeadline {
                    block: block.name.clone(),
                    critical_path: cp,
                    time_range: block.time_range,
                });
            }
        }
        Ok(sys)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resource::ResourceType;

    fn lib() -> (ResourceLibrary, ResourceTypeId, ResourceTypeId) {
        let mut lib = ResourceLibrary::new();
        let add = lib.add(ResourceType::new("add", 1)).unwrap();
        let mul = lib
            .add(ResourceType::new("mul", 2).pipelined().with_area(4))
            .unwrap();
        (lib, add, mul)
    }

    #[test]
    fn build_simple_system() {
        let (lib, add, mul) = lib();
        let mut b = SystemBuilder::new(lib);
        let p = b.add_process("p0");
        let blk = b.add_block(p, "body", 5).unwrap();
        let a = b.add_op(blk, "a", add).unwrap();
        let m = b.add_op(blk, "m", mul).unwrap();
        b.add_dep(a, m).unwrap();
        let sys = b.build().unwrap();
        assert_eq!(sys.num_ops(), 2);
        assert_eq!(sys.succs(a), &[m]);
        assert_eq!(sys.preds(m), &[a]);
        assert_eq!(sys.critical_path(blk), 3);
        assert_eq!(sys.delay(m), 2);
        assert_eq!(sys.occupancy(m), 1);
        assert_eq!(sys.op(a).block(), blk);
        assert_eq!(sys.block(blk).process(), p);
    }

    #[test]
    fn cross_block_edge_rejected() {
        let (lib, add, _) = lib();
        let mut b = SystemBuilder::new(lib);
        let p = b.add_process("p0");
        let b1 = b.add_block(p, "b1", 3).unwrap();
        let b2 = b.add_block(p, "b2", 3).unwrap();
        let x = b.add_op(b1, "x", add).unwrap();
        let y = b.add_op(b2, "y", add).unwrap();
        assert!(matches!(
            b.add_dep(x, y),
            Err(IrError::CrossBlockEdge { .. })
        ));
    }

    #[test]
    fn duplicate_and_self_edges_rejected() {
        let (lib, add, _) = lib();
        let mut b = SystemBuilder::new(lib);
        let p = b.add_process("p0");
        let blk = b.add_block(p, "b", 3).unwrap();
        let x = b.add_op(blk, "x", add).unwrap();
        let y = b.add_op(blk, "y", add).unwrap();
        b.add_dep(x, y).unwrap();
        assert!(matches!(
            b.add_dep(x, y),
            Err(IrError::DuplicateEdge { .. })
        ));
        assert!(matches!(b.add_dep(x, x), Err(IrError::SelfEdge { .. })));
    }

    #[test]
    fn cycle_detected_at_build() {
        let (lib, add, _) = lib();
        let mut b = SystemBuilder::new(lib);
        let p = b.add_process("p0");
        let blk = b.add_block(p, "b", 9).unwrap();
        let x = b.add_op(blk, "x", add).unwrap();
        let y = b.add_op(blk, "y", add).unwrap();
        b.add_dep(x, y).unwrap();
        b.add_dep(y, x).unwrap();
        assert!(matches!(b.build(), Err(IrError::Cycle { .. })));
    }

    #[test]
    fn infeasible_deadline_detected() {
        let (lib, add, _) = lib();
        let mut b = SystemBuilder::new(lib);
        let p = b.add_process("p0");
        let blk = b.add_block(p, "b", 2).unwrap();
        let x = b.add_op(blk, "x", add).unwrap();
        let y = b.add_op(blk, "y", add).unwrap();
        let z = b.add_op(blk, "z", add).unwrap();
        b.add_dep(x, y).unwrap();
        b.add_dep(y, z).unwrap();
        let err = b.build().unwrap_err();
        assert_eq!(
            err,
            IrError::InfeasibleDeadline {
                block: "b".into(),
                critical_path: 3,
                time_range: 2
            }
        );
    }

    #[test]
    fn zero_time_range_rejected() {
        let (lib, _, _) = lib();
        let mut b = SystemBuilder::new(lib);
        let p = b.add_process("p0");
        assert!(matches!(
            b.add_block(p, "b", 0),
            Err(IrError::ZeroTimeRange { .. })
        ));
    }

    #[test]
    fn duplicate_op_name_in_block_rejected() {
        let (lib, add, _) = lib();
        let mut b = SystemBuilder::new(lib);
        let p = b.add_process("p0");
        let blk = b.add_block(p, "b", 3).unwrap();
        b.add_op(blk, "x", add).unwrap();
        assert!(b.add_op(blk, "x", add).is_err());
    }

    #[test]
    fn type_and_user_queries() {
        let (lib, add, mul) = lib();
        let mut b = SystemBuilder::new(lib);
        let p0 = b.add_process("p0");
        let p1 = b.add_process("p1");
        let b0 = b.add_block(p0, "b", 5).unwrap();
        let b1 = b.add_block(p1, "b", 5).unwrap();
        b.add_op(b0, "a", add).unwrap();
        b.add_op(b0, "m", mul).unwrap();
        b.add_op(b1, "a", add).unwrap();
        let sys = b.build().unwrap();
        assert_eq!(sys.types_used_by_process(p0), vec![add, mul]);
        assert_eq!(sys.types_used_by_process(p1), vec![add]);
        assert_eq!(sys.users_of_type(add), vec![p0, p1]);
        assert_eq!(sys.users_of_type(mul), vec![p0]);
        assert_eq!(sys.ops_of_type(b0, mul).len(), 1);
        assert_eq!(sys.ops_of_type(b1, mul).len(), 0);
    }

    #[test]
    fn name_lookups() {
        let (lib, add, _) = lib();
        let mut b = SystemBuilder::new(lib);
        let p = b.add_process("proc");
        let blk = b.add_block(p, "body", 3).unwrap();
        let x = b.add_op(blk, "x", add).unwrap();
        let sys = b.build().unwrap();
        assert_eq!(sys.process_by_name("proc"), Some(p));
        assert_eq!(sys.block_by_name(p, "body"), Some(blk));
        assert_eq!(sys.op_by_name(blk, "x"), Some(x));
        assert_eq!(sys.op_by_name(blk, "nope"), None);
    }

    #[test]
    fn add_op_with_preds_convenience() {
        let (lib, add, _) = lib();
        let mut b = SystemBuilder::new(lib);
        let p = b.add_process("p");
        let blk = b.add_block(p, "b", 5).unwrap();
        let x = b.add_op(blk, "x", add).unwrap();
        let y = b.add_op(blk, "y", add).unwrap();
        let z = b.add_op_with_preds(blk, "z", add, &[x, y]).unwrap();
        let sys = b.build().unwrap();
        assert_eq!(sys.preds(z), &[x, y]);
    }

    #[test]
    fn topo_order_respects_edges() {
        let (lib, add, _) = lib();
        let mut b = SystemBuilder::new(lib);
        let p = b.add_process("p");
        let blk = b.add_block(p, "b", 9).unwrap();
        let x = b.add_op(blk, "x", add).unwrap();
        let y = b.add_op(blk, "y", add).unwrap();
        let z = b.add_op(blk, "z", add).unwrap();
        b.add_dep(z, y).unwrap();
        b.add_dep(y, x).unwrap();
        let sys = b.build().unwrap();
        let order = sys.topo_order(blk);
        let pos = |o: OpId| order.iter().position(|&q| q == o).unwrap();
        assert!(pos(z) < pos(y));
        assert!(pos(y) < pos(x));
    }
}
