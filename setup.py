from setuptools import Extension, setup

# The compiled kernels are hand-written C built with the system compiler.
# optional=True: where the extension cannot build, the install still
# succeeds and patex falls back to the pure-Python twin in patex._corepy.
setup(ext_modules=[Extension("patex._corec", ["src/patex/_corec.c"], optional=True)])
