"""Command-line front end.

Verbs:
  run            one simulation, report.json (+ optional VTK dumps)
  study-spatial  mesh refinement study at fixed time step
  study-temporal time-step refinement study at fixed mesh
  mesh-gen       generate a disk mesh and write it as JSON

Common flags: --config <json>, --out <dir>, --dump-fields, and the
protocol switch --fast (default, desk-scale) / --paper-exact (the full
table protocol: spatial tau = 2^-14, temporal M = 256).  The protocol
switch applies to built-in defaults only and cannot be combined with an
explicit --config.

Exit codes: 0 success, 2 configuration error (message names the field),
3 solver or coefficient failure (message names the step).
"""

from __future__ import annotations

import argparse
import json
import sys

from .forms import CoefficientBlowupError
from .meshing import generate_disk_mesh, save_mesh
from .studies import (MAX_MESH_M, ConfigError, StudyConfig, check_mesh_size,
                      config_from_dict, load_config, make_output_dir,
                      run_single, run_spatial_study, run_temporal_study)
from .timestepping import StepFailure

_SPATIAL_NOTE = ("fast mode: tau = 2^-12 keeps the first-order time error "
                 "below the quadratic space error down to M = 64")
_SPATIAL_NOTE_EXACT = "table protocol: tau = 2^-14"
_TEMPORAL_NOTE = ("fast mode: M = 128 keeps the quadratic space error "
                  "below the first-order time error down to tau = 1/128")
_TEMPORAL_NOTE_EXACT = "table protocol: M = 256"


def default_config(verb: str, paper_exact: bool, out_dir: str,
                   dump_fields: bool) -> StudyConfig:
    base = {"output_dir": out_dir, "dump_fields": dump_fields}
    if verb == "run":
        base.update(mesh_M=[16], tau=[1.0 / 32.0])
    elif verb == "study-spatial":
        base.update(mesh_M=[16, 32, 64],
                    tau=[2.0 ** -14 if paper_exact else 2.0 ** -12])
    elif verb == "study-temporal":
        base.update(mesh_M=[256 if paper_exact else 128],
                    tau=[1.0 / 32.0, 1.0 / 64.0, 1.0 / 128.0])
    return config_from_dict(base)


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="miscfem",
        description="Finite element benchmark driver for miscible "
                    "displacement in a disk")
    sub = parser.add_subparsers(dest="verb", required=True)
    for verb in ("run", "study-spatial", "study-temporal", "mesh-gen"):
        p = sub.add_parser(verb)
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--out", help="output directory")
        p.add_argument("--dump-fields", action="store_true",
                       help="write VTK field dumps")
        group = p.add_mutually_exclusive_group()
        group.add_argument("--fast", action="store_true", default=True,
                           help="desk-scale protocol (default)")
        group.add_argument("--paper-exact", dest="paper_exact",
                           action="store_true",
                           help="full table protocol")
        if verb == "mesh-gen":
            p.add_argument("--M", type=int, default=16,
                           help=f"boundary node count, 8..{MAX_MESH_M} "
                                "(default 16)")
    return parser


def _resolve_config(args) -> StudyConfig:
    if args.config is not None:
        if args.paper_exact:
            raise ConfigError("<flags>", "--paper-exact only applies to "
                                         "built-in defaults, not --config")
        config = load_config(args.config)
        overrides = {}
        if args.out:
            overrides["output_dir"] = args.out
        if args.dump_fields:
            overrides["dump_fields"] = True
        if overrides:
            data = config.echo_dict()
            data.update(overrides)
            config = config_from_dict(data)
        return config
    out_dir = args.out or f"miscfem-{args.verb}"
    return default_config(args.verb, args.paper_exact, out_dir,
                          args.dump_fields)


def _print_report(report):
    print(report.to_csv(), end="")


def _protocol_note(args) -> str:
    """Provenance line for the report header; the error-balance notes
    describe the built-in protocols only."""
    if args.config is not None:
        return "user-supplied configuration"
    if args.verb == "study-spatial":
        return _SPATIAL_NOTE_EXACT if args.paper_exact else _SPATIAL_NOTE
    return _TEMPORAL_NOTE_EXACT if args.paper_exact else _TEMPORAL_NOTE


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.verb == "mesh-gen":
            if args.config is not None:
                raise ConfigError("<flags>", "mesh-gen takes --M, not --config")
            check_mesh_size("M", args.M)
            out = make_output_dir("out", args.out or "miscfem-mesh-gen")
            mesh = generate_disk_mesh(M=args.M)
            path = out / f"mesh_M{args.M}.json"
            save_mesh(mesh, path)
            print(f"wrote {path} ({mesh.num_vertices} vertices, "
                  f"{mesh.num_triangles} triangles)")
            return 0

        config = _resolve_config(args)
        if args.verb == "run":
            row = run_single(config)
            print(f"M={row.mesh_size} tau={row.tau:.6g}: "
                  f"c_l2={row.record.c_l2:.4E} u_l2={row.record.u_l2:.4E} "
                  f"c_linf={row.record.c_linf:.4E} "
                  f"u_linf={row.record.u_linf:.4E}")
        elif args.verb == "study-spatial":
            _print_report(run_spatial_study(config, note=_protocol_note(args)))
        elif args.verb == "study-temporal":
            _print_report(run_temporal_study(config, note=_protocol_note(args)))
        print(f"reports written to {config.output_dir}")
        return 0
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except StepFailure as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 3
    except CoefficientBlowupError as exc:
        print(f"coefficient failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
