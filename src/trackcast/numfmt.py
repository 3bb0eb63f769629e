"""Fixed-precision numeric rendering shared by all text outputs."""


def fixed6(value: float) -> str:
    # a value that rounds to zero never renders as -0.000000
    text = f"{value:.6f}"
    return "0.000000" if text == "-0.000000" else text
