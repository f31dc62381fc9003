"""Command-line entry point, called in-process through cli.main(argv)."""

from depthlab import cli


def test_gradcheck_passes_every_case(capsys):
    assert cli.main(["gradcheck"]) == 0
    lines = capsys.readouterr().out.splitlines()
    cases = {line.split()[0]: line.split()[-1] for line in lines[:-1]}
    assert set(cases) == {
        "mul+exp",
        "matmul",
        "conv2d",
        "conv2d_stride2",
        "depthwise",
        "softmax",
        "layer_norm",
        "bilinear_sample",
    }
    assert set(cases.values()) == {"ok"}
    assert lines[-1].startswith("worst: ")
