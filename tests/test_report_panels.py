"""``panels.csv`` as ``fundgrowth report`` writes it, against the plain writer.

The reference below parses every cell of ``backtest.csv`` and writes the
panels columns through ``tableio.write_table``, so each cell is the
``repr`` of its float.  At K = 10 the sorted ``c_ij`` names put ``c_110``
ahead of ``c_12``, an order the K = 3 golden digest cannot see.
"""

import datetime
import io

import numpy as np
import pytest

from fundgrowth import cli, tableio
from fundgrowth.tableio import write_table

K10_SCENARIO = (
    "dim = 10\n"
    "cov = " + "; ".join(", ".join("0.0324" if i == j else "0.0162" for j in range(10))
                         for i in range(10)) + "\n"
    "prior_mean = " + ", ".join(["0.15"] * 10) + "\n"
    "prior_cov = " + "; ".join(", ".join("0.1" if i == j else "0.0" for j in range(10))
                               for i in range(10)) + "\n"
    "steps = 100\n"
    "seed = 5\n"
)

K2_HEADER = "date,nu_hat_1,nu_hat_2,a,F,logW_market,logW_nuhat,logW_shrunk,c_11,c_12,c_22\n"
K2_ROWS = ["2001-01-01,0.5,-0.25,0.4,0.0,0.0,0.0,0.0,1.0,0.1,2.0",
           "2001-01-02,0.75,0.125,0.3,0.01,-0.02,0.03,0.04,1.5,0.2,2.5",
           "2001-01-03,1.0,0.1,0.7,0.02,-0.01,0.05,0.06,2.0,0.3,3.0"]


def reference_panels(text: str) -> str:
    """``panels.csv`` with every column parsed and written again by ``write_table``."""
    lines = [line for line in text.splitlines() if line.strip()]
    header = lines[0].split(",")
    cells = [line.split(",") for line in lines[1:]]
    dates = [datetime.date.fromisoformat(row[0]) for row in cells]
    table = dict(zip(header[1:], np.array([[float(v) for v in row[1:]] for row in cells]).T))
    k = sum(1 for name in header if name.startswith("nu_hat_"))
    for j in range(1, k + 1):
        table[f"shrunk_{j}"] = table["a"] * table[f"nu_hat_{j}"]
    names = [f"{name}_{j}" for name in ("nu_hat", "shrunk") for j in range(1, k + 1)]
    names += ["a", "logW_market", "logW_nuhat", "logW_shrunk", "F"]
    names += sorted(name for name in header if name.startswith("c_"))
    out = io.StringIO()
    write_table(out, ["date"] + names, [(dates, np.column_stack([table[n] for n in names]))])
    return out.getvalue()


def report_panels(tmp_path, data: bytes) -> str:
    src = tmp_path / "backtest.csv"
    src.write_bytes(data)
    assert cli.main(["report", "--input", str(src), "--out", str(tmp_path / "out")]) == 0
    return (tmp_path / "out" / "panels.csv").read_bytes().decode()


def test_k10_panels_equal_reference(tmp_path):
    (tmp_path / "scenario.cfg").write_text(K10_SCENARIO)
    (tmp_path / "bt.cfg").write_text("burn_in_days = 40\n")
    assert cli.main(["simulate", "--config", str(tmp_path / "scenario.cfg"),
                     "--out", str(tmp_path)]) == 0
    assert cli.main(["backtest", "--input", str(tmp_path / "simulated.csv"),
                     "--config", str(tmp_path / "bt.cfg"), "--out", str(tmp_path)]) == 0
    source = (tmp_path / "backtest.csv").read_text()
    assert len(source.splitlines()) == 61
    assert cli.main(["report", "--input", str(tmp_path / "backtest.csv"),
                     "--out", str(tmp_path / "out")]) == 0
    got = (tmp_path / "out" / "panels.csv").read_text()
    header = got.partition("\n")[0].split(",")
    assert header.index("c_110") < header.index("c_12")
    assert got == reference_panels(source)


def test_line_endings_and_blank_lines_give_the_same_bytes(tmp_path):
    clean = K2_HEADER + "".join(row + "\n" for row in K2_ROWS)
    messy = (K2_HEADER.replace("\n", "\r\n") + K2_ROWS[0] + "\r\n\r\n"
             + K2_ROWS[1] + "\n  \n" + K2_ROWS[2])
    assert report_panels(tmp_path, messy.encode()) == reference_panels(clean)


def test_shrunk_cells_are_repr_of_a_times_nu_hat(tmp_path):
    got = report_panels(tmp_path, (K2_HEADER + "\n".join(K2_ROWS) + "\n").encode())
    lines = got.splitlines()
    header = lines[0].split(",")
    for line, source in zip(lines[1:], K2_ROWS):
        cells, src = line.split(","), source.split(",")
        a = float(src[3])
        for j in (1, 2):
            assert cells[header.index(f"shrunk_{j}")] == repr(a * float(src[j]))


def test_copied_cells_keep_their_text(tmp_path):
    # c_11 hand-edited to 1.50 and logW_nuhat to " 0.03": copied as written
    edited = K2_ROWS[1].replace(",1.5,", ",1.50,").replace(",0.03,", ", 0.03,")
    got = report_panels(tmp_path, (K2_HEADER + "\n".join([K2_ROWS[0], edited, K2_ROWS[2]])
                                   + "\n").encode())
    header, _, second = got.splitlines()[:3]
    cells = dict(zip(header.split(","), second.split(",")))
    assert cells["c_11"] == "1.50" and cells["logW_nuhat"] == " 0.03"
    assert got.replace("1.50", "1.5").replace(" 0.03", "0.03") == reference_panels(
        K2_HEADER + "\n".join(K2_ROWS) + "\n")


def test_k10_panels_equal_reference_in_blocks_of_7(tmp_path, monkeypatch):
    # blocks of 497 cells: report reads backtest.csv's 71-cell rows 7 at a time, so
    # 60 rows end in a part block; simulated.csv's 12-cell rows go 41 at a time
    monkeypatch.setattr(tableio, "_TABLE_BLOCK_CELLS", 7 * 71)
    test_k10_panels_equal_reference(tmp_path)


@pytest.mark.parametrize("out", ["out", "new/out"])
def test_bad_row_past_the_first_block_leaves_no_output(tmp_path, monkeypatch, capsys, out):
    monkeypatch.setattr(tableio, "_TABLE_BLOCK_CELLS", 2 * 11)    # 2 rows of K2_HEADER
    rows = K2_ROWS + [K2_ROWS[2].replace("2001-01-03,1.0", "2001-01-04,x")]
    src = tmp_path / "backtest.csv"
    src.write_text(K2_HEADER + "\n".join(rows) + "\n")
    assert cli.main(["report", "--input", str(src), "--out", str(tmp_path / out)]) == 2
    assert capsys.readouterr().err.startswith("error: line 5: ")
    assert sorted(tmp_path.iterdir()) == [src]
    (tmp_path / out).mkdir(parents=True)     # an existing directory keeps no partial file
    assert cli.main(["report", "--input", str(src), "--out", str(tmp_path / out)]) == 2
    assert list((tmp_path / out).iterdir()) == []


def test_columns_named_c_names_k_dates_or_header_are_float_columns(tmp_path):
    # no header name can stand for the dates, K or the list of c_ names: c_names is drawn
    header = K2_HEADER.rstrip("\n") + ",c_names,k,dates,header\n"
    text = header + "".join(f"{row},{i}.5,2.0,3.0,4.0\n" for i, row in enumerate(K2_ROWS))
    assert report_panels(tmp_path, text.encode()) == reference_panels(text)
    chart = (tmp_path / "out" / "quadratic_variation.svg").read_text()
    assert ">c_names<" in chart and ">c_22<" in chart
