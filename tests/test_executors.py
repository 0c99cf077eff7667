"""The shared executor enum (`repro.executors`): one vocabulary for the
CLI, the session, the serving protocol, and the execution engine."""

import pytest

from repro.errors import ConfigError, ReproError
from repro.executors import EXECUTOR_NAMES, Executor, parse_executor


class TestParsing:
    def test_names_are_the_ladder(self):
        assert EXECUTOR_NAMES == ("auto", "codegen", "scalar")

    def test_parse_every_name(self):
        for name in EXECUTOR_NAMES:
            assert parse_executor(name).value == name

    def test_none_uses_default(self):
        assert parse_executor(None) is Executor.AUTO
        assert parse_executor(None, default=Executor.SCALAR) is Executor.SCALAR

    def test_enum_passthrough(self):
        assert parse_executor(Executor.CODEGEN) is Executor.CODEGEN

    def test_unknown_names_valid_executors(self):
        with pytest.raises(ConfigError) as exc_info:
            parse_executor("warp")
        message = str(exc_info.value)
        assert "warp" in message
        for name in EXECUTOR_NAMES:
            assert name in message

    def test_config_error_is_a_value_error(self):
        """Callers that predate the enum caught ValueError; ConfigError
        subclasses it, so they keep working."""
        with pytest.raises(ValueError):
            parse_executor("warp")
        with pytest.raises(ReproError):
            parse_executor("warp")

    def test_str_is_the_wire_name(self):
        assert str(Executor.CODEGEN) == "codegen"


class TestWiring:
    def test_session_validates_at_construction(self):
        from repro.compiler import CompilerSession

        with pytest.raises(ConfigError, match="valid executors"):
            CompilerSession(executor="warp")

    def test_execute_kernel_validates(self):
        import numpy as np

        from repro.gpu.vector_exec import execute_kernel
        from repro.ir import build_module
        from repro.lang import parse_program

        src = """
        kernel k(double a[n], int n) {
          #pragma acc kernels loop gang vector(64)
          for (i = 0; i < n; i++) { a[i] = i; }
        }
        """
        fn = build_module(parse_program(src)).functions[0]
        with pytest.raises(ConfigError, match="valid executors"):
            execute_kernel(fn, {"a": np.zeros(4), "n": 4}, executor="warp")

    def test_cli_exposes_all_names(self):
        from repro.cli import build_parser

        parser = build_parser()
        args = parser.parse_args(["compile", "-", "--executor", "codegen"])
        assert args.executor == "codegen"
        with pytest.raises(SystemExit):
            parser.parse_args(["compile", "-", "--executor", "warp"])
