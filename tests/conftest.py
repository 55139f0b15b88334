import numpy as np
import pytest

from jsrcert.sampling import ModeSet


@pytest.fixture(scope="session")
def parrilo() -> ModeSet:
    """Pair of 2x2 modes with JSR 1 but no common quadratic certificate."""
    return ModeSet((np.array([[1.0, 0.0], [1.0, 0.0]]),
                    np.array([[0.0, 1.0], [0.0, -1.0]])))


@pytest.fixture(scope="session")
def double_identity() -> ModeSet:
    return ModeSet((2.0 * np.eye(2),))


@pytest.fixture()
def oversized_field_files(tmp_path):
    """Trajectory files holding a field past csv's size limit (131072
    characters), by name, each with the file line csv stops on: a state field
    in a file whose ids pass int64 (read by csv), a header field, and a state
    field beside a negative step in a file numpy's reader takes, where csv
    must name the step's line."""
    big = "0." + "0" * 140000 + "1"
    header = "traj_id,step,x1,x2"
    files = {}

    def write(name, lines, line):
        path = tmp_path / f"{name}.csv"
        path.write_text("\n".join(lines) + "\n")
        files[name] = (path, line)

    rows = [f"{2**63 + i},{step},1.0,0.0" for i in range(4) for step in (0, 1)]
    write("csv_path", [header, *rows[:-1], f"{2**63 + 3},1,{big},0.0"], 9)
    write("header", [header + "y" * 140000, *rows], 1)
    rows = [f"{i},{step},1.0,0.0" for i in range(4) for step in (0, 1)]
    write("numpy_path", [header, *rows[:2], f"1,-1,{big},0.0", *rows[3:]], 4)
    return files
