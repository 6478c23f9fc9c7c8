"""Building rewritten dataflows for a client/server partitioning.

Given a Vega specification and an *assignment* (for every data entry, how
many of its leading transforms execute on the server), the
:class:`SpecRewriter` constructs the corresponding dataflow:

* server-assigned transform chains become :class:`VegaDBMSTransform` (VDT)
  operators whose SQL batches the chain (including the server-assigned
  prefix inherited from the parent entry),
* ``extent`` transforms assigned to the server become their own VDT whose
  output value is the ``[min, max]`` pair, because downstream operators
  reference it as a signal (Example 4.1 in the paper),
* remaining transforms run as ordinary client-side operators downstream of
  the VDT (or of the client-side source when nothing is offloaded),
* root data entries always fetch their rows through the middleware — in
  VegaPlus the raw data lives in the DBMS, so an all-client plan still
  pays the full data transfer once, exactly like loading the CSV into the
  browser does for native Vega.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field

from repro.errors import OptimizationError, SpecError
from repro.dataflow import Dataflow, Operator, create_transform
from repro.dataflow.transforms import _convert_param
from repro.net.middleware import MiddlewareServer
from repro.rewrite.templates import legal_splits
from repro.rewrite.vdt import VegaDBMSTransform
from repro.vega.spec import DataEntry, VegaSpec


@dataclass
class RewrittenDataflow:
    """A compiled dataflow plus bookkeeping about its VDT operators."""

    dataflow: Dataflow
    vdts: list[VegaDBMSTransform] = field(default_factory=list)
    assignment: dict[str, int] = field(default_factory=dict)
    #: The operators each data entry contributed, in insertion order.  What
    #: an entry contributes depends only on its own and its ancestors'
    #: splits and client-row needs, which lets the optimizer encode a plan
    #: space by entry fragment instead of building every candidate.
    entry_operators: dict[str, list[Operator]] = field(default_factory=dict)


@dataclass
class _EntryState:
    """Per-entry bookkeeping while the rewriter walks the pipeline."""

    tail: Operator | None
    #: Transform definitions (from the base table) that produce this entry's
    #: output on the server, or None when the output is client-side.
    server_chain: list[dict] | None
    #: Base table the server chain reads from.
    table: str | None


class SpecRewriter:
    """Builds dataflows for arbitrary client/server assignments of a spec."""

    def __init__(self, spec: VegaSpec, middleware: MiddlewareServer) -> None:
        self.spec = spec
        self.middleware = middleware
        self._operator_signals = spec.operator_signal_names()
        self._referenced = spec.referenced_datasets()
        self._children: dict[str, list[str]] = {entry.name: [] for entry in spec.data}
        for entry in spec.data:
            if entry.source is not None:
                self._children.setdefault(entry.source, []).append(entry.name)

    # ------------------------------------------------------------------ #
    def client_row_consumers(self, assignment: Mapping[str, int]) -> set[str]:
        """Entries whose rows must be materialised on the client.

        This is the dependency-checking step of Section 5.2: an entry's
        rows are needed client-side when scales/marks reference it, or when
        a child entry executes its transforms on the client (split 0) and
        itself needs rows.  Entries outside this set that are fully pushed
        to the server never transfer their rows to the browser.
        """
        needed: set[str] = set()
        # Walk entries in reverse declaration order so children are decided
        # before their parents.  An entry with client-side transforms needs
        # its *input* rows, which is the parent's (or its own VDT's) concern,
        # handled when the entry is built; the flag here is only about outputs.
        for entry in reversed(self.spec.data):
            if entry.name in self._referenced or any(
                child in needed and int(assignment.get(child, 0)) == 0
                for child in self._children[entry.name]
            ):
                needed.add(entry.name)
        return needed

    # ------------------------------------------------------------------ #
    def build(self, assignment: Mapping[str, int]) -> RewrittenDataflow:
        """Construct the dataflow implementing ``assignment``.

        Each entry's split must be one :func:`legal_splits` allows given
        its source entry's state; otherwise :class:`OptimizationError`.
        """
        dataflow = Dataflow()
        for signal in self.spec.signals:
            dataflow.declare_signal(signal.name, value=signal.value)

        vdts: list[VegaDBMSTransform] = []
        states: dict[str, _EntryState] = {}
        needed = self.client_row_consumers(assignment)
        entry_operators: dict[str, list[Operator]] = {}
        on_server: set[str] = set()

        for entry in self.spec.data:
            split = int(assignment.get(entry.name, 0))
            parent_on_server = entry.source in on_server
            splits, on_server_at = legal_splits(entry, parent_on_server)
            if split not in splits:
                raise OptimizationError(
                    f"entry {entry.name!r}: split {split} is not legal here, "
                    f"legal splits are 0..{splits[-1]}"
                )
            if split == on_server_at:
                on_server.add(entry.name)
            already = dataflow.num_operators()
            state = self._build_entry(
                entry, split, parent_on_server, dataflow, states, vdts, needed
            )
            states[entry.name] = state
            entry_operators[entry.name] = dataflow.operators()[already:]
            if state.tail is not None:
                dataflow.mark_dataset(entry.name, state.tail)

        return RewrittenDataflow(
            dataflow=dataflow,
            vdts=vdts,
            assignment={e.name: int(assignment.get(e.name, 0)) for e in self.spec.data},
            entry_operators=entry_operators,
        )

    # ------------------------------------------------------------------ #
    def _build_entry(
        self,
        entry: DataEntry,
        split: int,
        parent_on_server: bool,
        dataflow: Dataflow,
        states: dict[str, _EntryState],
        vdts: list[VegaDBMSTransform],
        needed: set[str],
    ) -> _EntryState:
        entry_needed = entry.name in needed or split < len(entry.transforms)
        if entry.source is not None:
            parent = states[entry.source]
            base_table = parent.table
            inherited_chain = list(parent.server_chain) if parent_on_server else None
            upstream_tail: Operator | None = parent.tail
        elif entry.values is not None:
            source = dataflow.add_source(list(entry.values), name=f"data:{entry.name}")
            return self._attach_client_transforms(
                entry, entry.transforms, source, dataflow, table=None, server_chain=None
            )
        else:
            base_table = entry.table
            inherited_chain = []
            upstream_tail = None

        if split == 0:
            if not entry_needed and entry.name not in needed and not entry.transforms:
                # Raw root entry that nothing on the client consumes: leave it
                # on the server (children read the base table directly).
                return _EntryState(
                    tail=None,
                    server_chain=list(inherited_chain) if inherited_chain is not None else None,
                    table=base_table,
                )
            if upstream_tail is None:
                # Root entry executed on the client: fetch the raw table once
                # through the middleware (the browser-load cost).
                fetch = self._make_vdt(base_table, [], value_kind=None)
                dataflow.add_operator(fetch, None, name=f"data:{entry.name}")
                vdts.append(fetch)
                upstream_tail = fetch
            return self._attach_client_transforms(
                entry,
                entry.transforms,
                upstream_tail,
                dataflow,
                table=base_table,
                server_chain=list(inherited_chain) if inherited_chain is not None else None,
            )

        # --- server-assigned prefix -> one or more VDTs ------------------- #
        server_defs = entry.transforms[:split]
        client_defs = entry.transforms[split:]
        row_chain: list[dict] = list(inherited_chain)
        tail: Operator | None = None

        for definition in server_defs:
            exported_signal = definition.get("signal")
            if definition.get("type") == "extent" and isinstance(exported_signal, str):
                # The extent gets its own VDT: its output is a value consumed
                # via signal-style references, not a row stream.
                extent_vdt = self._make_vdt(
                    base_table, row_chain + [definition], value_kind="extent"
                )
                dataflow.add_operator(extent_vdt, None, name=exported_signal)
                vdts.append(extent_vdt)
                continue
            row_chain.append(definition)

        rows_needed_on_client = bool(client_defs) or entry.name in needed
        produced_rows_on_server = len(row_chain) > len(inherited_chain) or not client_defs
        if produced_rows_on_server and not rows_needed_on_client:
            # Fully offloaded and nothing on the client consumes the rows:
            # expose the server chain to children without fetching anything.
            return _EntryState(tail=None, server_chain=row_chain, table=base_table)
        if produced_rows_on_server:
            main_vdt = self._make_vdt(base_table, row_chain, value_kind=None)
            dataflow.add_operator(main_vdt, None, name=f"vdt:{entry.name}")
            vdts.append(main_vdt)
            tail = main_vdt
        else:
            # Only extents were offloaded; rows still come from the client side.
            if upstream_tail is None:
                fetch = self._make_vdt(base_table, [], value_kind=None)
                dataflow.add_operator(fetch, None, name=f"data:{entry.name}")
                vdts.append(fetch)
                upstream_tail = fetch
            tail = upstream_tail

        return self._attach_client_transforms(
            entry,
            client_defs,
            tail,
            dataflow,
            table=base_table,
            server_chain=row_chain,
        )

    def _attach_client_transforms(
        self,
        entry: DataEntry,
        definitions: list[dict],
        upstream: Operator,
        dataflow: Dataflow,
        table: str | None,
        server_chain: list[dict] | None,
    ) -> _EntryState:
        current = upstream
        for raw in definitions:
            definition = self._rewrite_refs(raw)
            exported_signal = definition.pop("signal", None)
            operator = create_transform(definition)
            name = exported_signal if isinstance(exported_signal, str) else None
            dataflow.add_operator(operator, current, name=name)
            current = operator
        return _EntryState(
            tail=current,
            server_chain=None if definitions else server_chain,
            table=table,
        )

    # ------------------------------------------------------------------ #
    def _make_vdt(
        self, table: str | None, transforms: list[dict], value_kind: str | None
    ) -> VegaDBMSTransform:
        if table is None:
            raise SpecError("cannot build a VDT without a backing table")
        cleaned = [
            {k: v for k, v in definition.items() if k != "signal"}
            for definition in transforms
        ]
        resolved_params = [
            _convert_param(self._rewrite_refs({k: v for k, v in definition.items() if k != "type"}))
            for definition in cleaned
        ]
        return VegaDBMSTransform(
            table=table,
            transforms=cleaned,
            middleware=self.middleware,
            value_kind=value_kind,
            params={"_resolved_transforms": resolved_params},
        )

    def _rewrite_refs(self, definition: dict) -> dict:
        """Turn transform-produced signal refs into operator refs."""
        def rewrite(value: object) -> object:
            if isinstance(value, dict):
                if set(value) == {"signal"} and value["signal"] in self._operator_signals:
                    return {"operator": value["signal"]}
                return {k: rewrite(v) for k, v in value.items()}
            if isinstance(value, list):
                return [rewrite(v) for v in value]
            return value

        return {
            key: (value if key == "signal" else rewrite(value))
            for key, value in definition.items()
        }
